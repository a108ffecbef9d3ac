"""A batch of block norms gives, row by row, what its rows give alone.

The batch is the zero-padded (rows, 32) array of block norms the verify
sweeps evaluate; each row is compared with the one-row call on its
unpadded row, within 1e-13 relative (the padding moves sums at rounding
level).  Rows of one width give their one-row values bit for bit.
"""
import math

import numpy as np
import pytest

from besovflow.dyadic import (
    dyadic_norm,
    interpolation_bound,
    smoothing_gain,
    truncation_power_sum,
    weighted_smoothing_sum,
    young_convolve,
)
from besovflow.envelope import GUARD, compute_envelope, envelope_equivalence

RTOL = 1e-13
WIDTH = 32
RANGES = [(-20.0, 20.0), (-8.0, 8.0)]
Q_CHOICES = {"1": (1.0,), "2": (2.0,), "inf": (math.inf,), "mixed": (1.0, 2.0, math.inf)}


def close(batch, solo):
    np.testing.assert_allclose(batch, solo, rtol=RTOL, atol=0.0)


class Rows:
    """One row of block norms of each support 1..32 as a batch, with per-row orders.

    ``singles`` holds the unpadded rows, each as a one-row batch.  With
    ``rescaled`` a row is scaled by 2^600 or 2^-600 at random, so the q-th
    powers of its norms over- or underflow while the norms do not.
    """

    def __init__(self, rng, log2_range, q_choices, rescaled=False):
        scales = (1.0, 2.0**600, 2.0**-600) if rescaled else (1.0,)
        self.singles = []
        for k in range(1, WIDTH + 1):
            values = np.exp2(rng.uniform(*log2_range, k)) * rng.choice([-1.0, 1.0], k)
            self.singles.append(np.abs(values * rng.choice(scales))[None])
        rows = len(self.singles)
        self.norms = np.zeros((rows, WIDTH))
        for row, one in zip(self.norms, self.singles):
            row[: one.shape[1]] = one[0]
        self.r = rng.uniform(-2.0, 2.0, rows)
        self.rp = self.r + rng.uniform(0.1, 2.0, rows)
        self.q = rng.choice(q_choices, rows)
        self.n = np.array([rng.integers(0, one.shape[1] + 4) for one in self.singles])

    def each(self, *columns):
        """(one-row batch, column entries...) per row."""
        return zip(self.singles, *columns)


@pytest.fixture(params=[(r, q, big) for r in RANGES for q in Q_CHOICES for big in (False, True)],
                ids=lambda p: f"{p[0][1]:g}-q{p[1]}{'-rescaled' if p[2] else ''}")
def rows(request, rng):
    log2_range, q, rescaled = request.param
    return Rows(rng, log2_range, Q_CHOICES[q], rescaled)


def test_dyadic_norm(rows):
    close(dyadic_norm(rows.norms, (rows.r, rows.q)),
          [dyadic_norm(f, (r, q))[0] for f, r, q in rows.each(rows.r, rows.q)])


def test_smoothing_gain(rows):
    value, bound = smoothing_gain(rows.norms, rows.r, rows.rp, rows.q, rows.n)
    solo = [smoothing_gain(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q, rows.n)]
    close(value, [v[0] for v, _ in solo])
    close(bound, [b[0] for _, b in solo])


def test_weighted_smoothing_sum(rows):
    value, bound = weighted_smoothing_sum(rows.norms, rows.r, rows.rp, rows.q)
    solo = [weighted_smoothing_sum(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q)]
    close(value, [v[0] for v, _ in solo])
    close(bound, [b[0] for _, b in solo])


@pytest.mark.parametrize("log2_range", RANGES)
def test_truncation_power_sum(rng, log2_range):
    # a power form: its rows over- or underflow with their norms, so none is rescaled
    rows = Rows(rng, log2_range, (1.0, 2.0))
    value, bound = truncation_power_sum(rows.norms, rows.r, rows.rp, rows.q)
    solo = [truncation_power_sum(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q)]
    close(value, [v[0] for v, _ in solo])
    close(bound, [b[0] for _, b in solo])


def test_envelope(rows):
    env = compute_envelope(rows.norms, rows.r, rows.rp)
    assert env.gamma.shape == (WIDTH, WIDTH + GUARD)
    for row, (f, s, s1) in zip(env.gamma, rows.each(rows.r, rows.rp)):
        close(row[: f.shape[1] + GUARD], compute_envelope(f, s, s1).gamma[0])
    sandwich = envelope_equivalence(rows.norms, rows.r, rows.q, rows.rp)
    solo = [envelope_equivalence(f, s, q, s1) for f, s, q, s1 in rows.each(rows.r, rows.q, rows.rp)]
    for side, column in zip(sandwich, zip(*solo)):
        close(side, [x[0] for x in column])


def test_interpolation_bound(rows, rng):
    s0 = rows.r - rng.uniform(0.2, 1.0, len(rows.singles))
    s1 = rows.rp
    s = s0 + (s1 - s0) * rng.uniform(0.1, 0.9, len(rows.singles))
    levels = np.arange(WIDTH + 4)
    parts = interpolation_bound(rows.norms, s0, s, s1, rows.q, levels)
    assert parts.low.shape == parts.high.shape == (WIDTH, WIDTH + 4)
    for row, (f, *orders) in enumerate(rows.each(s0, s, s1, rows.q)):
        width = f.shape[1] + 4
        solo = interpolation_bound(f, *orders, np.arange(width))
        close(parts.actual[row], solo.actual[0])
        close(parts.low[row, :width], solo.low[0])
        close(parts.high[row, :width], solo.high[0])


@pytest.mark.parametrize("q", sorted(Q_CHOICES))
@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600])
def test_young_convolve(rng, q, scale):
    sizes = rng.integers(1, 12, (40, 2))
    pairs = [(rng.standard_normal(a) * scale, rng.standard_normal(b)) for a, b in sizes]
    u, v = (np.zeros((len(pairs), 11)) for _ in range(2))
    for row, (a, b) in enumerate(pairs):
        u[row, : a.size], v[row, : b.size] = a, b
    qs = rng.choice(Q_CHOICES[q], len(pairs))
    batch = young_convolve(u, v, qs)
    for row, ((a, b), q_row) in enumerate(zip(pairs, qs)):
        solo = young_convolve(a[None], b[None], q_row)
        width = solo.values.shape[1]
        close(batch.values[row, :width], solo.values[0])
        assert not batch.values[row, width:].any()
        close(batch.norm[row], solo.norm[0])
        close(batch.bound[row], solo.bound[0])


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_equal_width_batch_is_its_rows_bit_for_bit(rng, q):
    # rows of one width, as the engine stacks flow images, need no padding,
    # and the batch gives each row's one-row values exactly
    norms = Rows(rng, (-20.0, 20.0), (q,)).norms
    r, rp = 0.5, 1.75
    batch_norm = dyadic_norm(norms, (r, q))
    batch_env = compute_envelope(norms, r, rp)
    batch_sum = weighted_smoothing_sum(norms, r, rp, q)[0]
    for row, one in enumerate(norms[:, None]):
        assert batch_norm[row] == dyadic_norm(one, (r, q))[0]
        assert np.array_equal(batch_env.gamma[row], compute_envelope(one, r, rp).gamma[0])
        assert batch_sum[row] == weighted_smoothing_sum(one, r, rp, q)[0][0]


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_one_row_out_of_range_raises_naming_its_order(q):
    # row 1's weights 2^{10 k} push its norm past float range at s = 10
    norms = np.ones((3, 4))
    norms[1] = 1e308
    s = np.array([0.0, 10.0, 0.5])
    message = rf"\(s, q\) = \(10, {q:g}\) dyadic norm leaves float range"
    with pytest.raises(ValueError, match=message):
        dyadic_norm(norms, (s, np.full(3, q)))
    with pytest.raises(ValueError, match=rf"\(s, q\) = \(10, {q:g}\)"):
        smoothing_gain(norms, s, s + 1.0, q, np.array([0, 3, 1]))
    with pytest.raises(ValueError, match=r"envelope at orders s=10, s1=11 leaves float range"):
        envelope_equivalence(norms, s, q, s + 1.0)
    u, v = np.ones((3, 2)), np.ones((3, 2))
    u[1] = 1e200
    v[1] = 1e200
    with pytest.raises(ValueError, match=rf"l\^{q:g} norm of u\*v leaves float range"):
        young_convolve(u, v, np.full(3, q))


def test_batch_input_is_checked():
    for shape in [(4,), (0, 4), (3, 0)]:  # like a sequence, a row has at least one block
        with pytest.raises(ValueError, match="2-D array of rows of at least one block"):
            dyadic_norm(np.ones(shape), (0.0, 2.0))
        with pytest.raises(ValueError, match="2-D array of rows of at least one block"):
            compute_envelope(np.ones(shape), 0.0, 1.0)
    with pytest.raises(ValueError, match="two batches of rows"):
        young_convolve(np.ones((2, 0)), np.ones((2, 3)), 2.0)
    with pytest.raises(ValueError, match="negative or non-finite"):
        dyadic_norm(np.array([[1.0, -1.0]]), (0.0, 2.0))
