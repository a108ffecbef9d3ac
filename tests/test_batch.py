"""A batch of block norms gives, row by row, what its sequences give alone.

The batch is the zero-padded (rows, 32) array of block norms the verify
sweeps evaluate; each row is compared with the single-sequence call on its
sequence, within 1e-13 relative (the padding moves sums at rounding level).
"""
import math

import numpy as np
import pytest

from besovflow.dyadic import (
    DyadicSequence,
    dyadic_norm,
    interpolation_bound,
    smoothing_gain,
    truncation_power_sum,
    weighted_smoothing_sum,
    young_convolve,
)
from besovflow.envelope import GUARD, compute_envelope, envelope_equivalence
from besovflow.pseudonorm import scalar_abs_space

RTOL = 1e-13
WIDTH = 32
RANGES = [(-20.0, 20.0), (-8.0, 8.0)]
Q_CHOICES = {"1": (1.0,), "2": (2.0,), "inf": (math.inf,), "mixed": (1.0, 2.0, math.inf)}


def close(batch, solo):
    np.testing.assert_allclose(batch, solo, rtol=RTOL, atol=0.0)


class Rows:
    """One sequence of each support 1..32 as a batch, with per-row orders.

    With ``rescaled`` a row is scaled by 2^600 or 2^-600 at random, so the
    q-th powers of its norms over- or underflow while the norms do not.
    """

    def __init__(self, rng, log2_range, q_choices, rescaled=False):
        scales = (1.0, 2.0**600, 2.0**-600) if rescaled else (1.0,)
        self.seqs = []
        for k in range(1, WIDTH + 1):
            values = np.exp2(rng.uniform(*log2_range, k)) * rng.choice([-1.0, 1.0], k)
            self.seqs.append(DyadicSequence(scalar_abs_space(), values * rng.choice(scales)))
        rows = len(self.seqs)
        self.norms = np.zeros((rows, WIDTH))
        for row, f in zip(self.norms, self.seqs):
            row[: f.support] = f.block_norms
        self.r = rng.uniform(-2.0, 2.0, rows)
        self.rp = self.r + rng.uniform(0.1, 2.0, rows)
        self.q = rng.choice(q_choices, rows)
        self.n = np.array([rng.integers(0, f.support + 4) for f in self.seqs])

    def each(self, *columns):
        """(sequence, column entries...) per row."""
        return zip(self.seqs, *columns)


@pytest.fixture(params=[(r, q, big) for r in RANGES for q in Q_CHOICES for big in (False, True)],
                ids=lambda p: f"{p[0][1]:g}-q{p[1]}{'-rescaled' if p[2] else ''}")
def rows(request, rng):
    log2_range, q, rescaled = request.param
    return Rows(rng, log2_range, Q_CHOICES[q], rescaled)


def test_dyadic_norm(rows):
    close(dyadic_norm(rows.norms, (rows.r, rows.q)),
          [dyadic_norm(f, (r, q)) for f, r, q in rows.each(rows.r, rows.q)])


def test_smoothing_gain(rows):
    value, bound = smoothing_gain(rows.norms, rows.r, rows.rp, rows.q, rows.n)
    solo = [smoothing_gain(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q, rows.n)]
    close(value, [v for v, _ in solo])
    close(bound, [b for _, b in solo])


def test_weighted_smoothing_sum(rows):
    value, bound = weighted_smoothing_sum(rows.norms, rows.r, rows.rp, rows.q)
    solo = [weighted_smoothing_sum(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q)]
    close(value, [v for v, _ in solo])
    close(bound, [b for _, b in solo])


@pytest.mark.parametrize("log2_range", RANGES)
def test_truncation_power_sum(rng, log2_range):
    # a power form: its rows over- or underflow with their norms, so none is rescaled
    rows = Rows(rng, log2_range, (1.0, 2.0))
    value, bound = truncation_power_sum(rows.norms, rows.r, rows.rp, rows.q)
    solo = [truncation_power_sum(f, *args) for f, *args in rows.each(rows.r, rows.rp, rows.q)]
    close(value, [v for v, _ in solo])
    close(bound, [b for _, b in solo])


def test_envelope(rows):
    env = compute_envelope(rows.norms, rows.r, rows.rp)
    assert env.gamma.shape == (WIDTH, WIDTH + GUARD)
    for row, (f, s, s1) in zip(env.gamma, rows.each(rows.r, rows.rp)):
        close(row[: f.support + GUARD], compute_envelope(f, s, s1).gamma)
    sandwich = envelope_equivalence(rows.norms, rows.r, rows.q, rows.rp)
    solo = [envelope_equivalence(f, s, q, s1) for f, s, q, s1 in rows.each(rows.r, rows.q, rows.rp)]
    for side, column in zip(sandwich, zip(*solo)):
        close(side, column)


def test_interpolation_bound(rows, rng):
    s0 = rows.r - rng.uniform(0.2, 1.0, len(rows.seqs))
    s1 = rows.rp
    s = s0 + (s1 - s0) * rng.uniform(0.1, 0.9, len(rows.seqs))
    levels = np.arange(WIDTH + 4)
    parts = interpolation_bound(rows.norms, s0, s, s1, rows.q, levels)
    assert parts.low.shape == parts.high.shape == (WIDTH, WIDTH + 4)
    for row, (f, *orders) in enumerate(rows.each(s0, s, s1, rows.q)):
        solo = interpolation_bound(f, *orders, np.arange(f.support + 4))
        close(parts.actual[row], solo.actual)
        close(parts.low[row, : f.support + 4], solo.low)
        close(parts.high[row, : f.support + 4], solo.high)


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
        solo = young_convolve(a, b, q_row)
        close(batch.values[row, : solo.values.size], solo.values)
        assert not batch.values[row, solo.values.size :].any()
        close(batch.norm[row], solo.norm)
        close(batch.bound[row], solo.bound)


def test_one_row_batch_is_the_sequence_bit_for_bit(rng):
    # a sequence is evaluated as the unpadded batch of its one row
    rows = Rows(rng, (-20.0, 20.0), (1.0, 2.0, math.inf))
    for f, r, rp, q, n in rows.each(rows.r, rows.rp, rows.q, rows.n):
        one = f.block_norms[None]
        assert dyadic_norm(one, (r, q))[0] == dyadic_norm(f, (r, q))
        assert smoothing_gain(one, r, rp, q, n)[1][0] == smoothing_gain(f, r, rp, q, n)[1]
        assert weighted_smoothing_sum(one, r, rp, q)[0][0] == weighted_smoothing_sum(f, r, rp, q)[0]
        gamma = compute_envelope(f, r, rp).gamma
        assert np.array_equal(compute_envelope(one, r, rp).gamma[0], gamma)
        batch = envelope_equivalence(one, r, q, rp)
        assert [side[0] for side in batch] == list(envelope_equivalence(f, r, q, rp))


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
    with pytest.raises(ValueError, match="2-D array of rows"):
        dyadic_norm(np.ones(4), (0.0, 2.0))
    with pytest.raises(ValueError, match="negative or non-finite"):
        dyadic_norm(np.array([[1.0, -1.0]]), (0.0, 2.0))
