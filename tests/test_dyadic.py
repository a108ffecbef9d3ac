import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovflow.dyadic import (
    DyadicSequence,
    dyadic_norm,
    interpolation_bound,
    random_sequence,
    sequence_report,
    smoothing_gain,
    truncate,
    truncation_power_sum,
    weighted_smoothing_sum,
    young_convolve,
)
from besovflow.littlewood_paley import GridFunction, decompose, grid_l2_space
from besovflow.pseudonorm import PseudoNormedSpace, scalar_abs_space

INF = math.inf


def row(*values):
    """The one-row batch of block norms |v_0| .. |v_K|."""
    return np.abs(np.array([values], dtype=float))


def random_row(rng, **kwargs):
    return random_sequence(rng, 1, **kwargs)


def brute_norm(values, s, q):
    """Independent finite-sum oracle for the weighted block norm."""
    weighted = [2.0 ** (k * s) * abs(v) for k, v in enumerate(values)]
    if math.isinf(q):
        return max(weighted, default=0.0)
    return sum(w**q for w in weighted) ** (1.0 / q)


class TestDyadicNorm:
    def test_single_block_any_scale(self):
        f = row(1.0)
        for s in (-2.0, 0.0, 3.5):
            for q in (1.0, 2.0, INF):
                assert dyadic_norm(f, (s, q))[0] == 1.0

    def test_finite_sum_oracle(self):
        f = row(1, 1, 1, 1)
        assert brute_norm(f[0], 1.0, 1.0) == 15.0
        assert dyadic_norm(f, (1.0, 1.0))[0] == pytest.approx(15.0, rel=1e-15)

    def test_sup_of_balanced_sequence(self):
        f = row(*(2.0 ** (-k) for k in range(10)))
        assert dyadic_norm(f, (1.0, INF))[0] == 1.0

    def test_zero_iff_zero_sequence(self):
        assert dyadic_norm(row(0), (1.0, 2.0))[0] == 0.0
        assert dyadic_norm(row(0, 0), (1.0, 2.0))[0] == 0.0
        assert dyadic_norm(row(0, 1e-300), (0.0, 1.0))[0] > 0.0

    def test_one_value_per_row(self):
        norms = dyadic_norm(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), (1.0, INF))
        assert norms.tolist() == [1.0, 2.0, 0.0]

    def test_overflow_outcome(self):
        f = row(1.0, 1.0)
        with pytest.raises(ValueError, match=r"\(s, q\) = \(5000, 1\) dyadic norm leaves float range"):
            dyadic_norm(f, (5000.0, 1.0))
        with pytest.raises(ValueError, match=r"\(5000, inf\)"):
            dyadic_norm(f, (5000.0, INF))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_in_range_norm_survives_power_sum_over_and_underflow(self, value, q):
        assert dyadic_norm(row(value), (0.0, q))[0] == pytest.approx(value, rel=1e-13, abs=0.0)
        pair = dyadic_norm(row(value, value), (0.0, q))[0]
        assert pair == pytest.approx(2.0 ** (1.0 / q) * value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_out_of_range_norm_raises(self, q):
        with pytest.raises(ValueError, match=rf"\(s, q\) = \(0, {q:g}\) dyadic norm leaves float range"):
            dyadic_norm(row(*[1e308] * 4), (0.0, q))

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_weighted_sum_overflow_raises(self, q):
        with pytest.raises(ValueError, match="r=0, r'=5000 leaves float range"):
            weighted_smoothing_sum(row(1.0, 1.0), 0.0, 5000.0, q)

    def test_power_sum_overflow_raises(self):
        with pytest.raises(ValueError, match="r=0, r'=5000 leaves float range"):
            truncation_power_sum(row(1.0, 1.0), 0.0, 5000.0, 2.0)

    def test_power_sum_of_an_in_range_norm_can_overflow(self):
        with pytest.raises(ValueError, match="r=0, r'=1 leaves float range"):
            truncation_power_sum(row(1e200), 0.0, 1.0, 2.0)

    def test_non_finite_block_norm_named(self):
        blocks = np.ones((3, 8))
        blocks[1] = 1e308  # its L2 norm, about 2.5e308, leaves float range
        f = DyadicSequence(grid_l2_space(8), blocks)
        with pytest.raises(ValueError, match="block 1 has non-finite"):
            f.block_norms

    def test_matches_oracle_on_random(self, rng):
        for _ in range(200):
            f = random_row(rng)
            s = float(rng.uniform(-3, 3))
            q = float(rng.choice([1.0, 1.5, 2.0, INF]))
            assert dyadic_norm(f, (s, q))[0] == pytest.approx(brute_norm(f[0], s, q), rel=1e-12)

    def test_scale_monotonicity_and_embeddings(self, rng):
        for _ in range(200):
            f = random_row(rng)
            s = float(rng.uniform(-2, 2))
            sp = s + float(rng.uniform(0, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            assert dyadic_norm(f, (sp, q))[0] >= dyadic_norm(f, (s, q))[0] * (1 - 1e-12)
            n_inf = dyadic_norm(f, (s, INF))[0]
            n_q = dyadic_norm(f, (s, 2.0))[0]
            n_one = dyadic_norm(f, (s, 1.0))[0]
            assert n_inf <= n_q * (1 + 1e-12)
            assert n_q <= n_one * (1 + 1e-12)

    def test_summability_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="summability q must be >= 1"):
            dyadic_norm(row(1.0, 2.0), (0.0, 0.5))
        with pytest.raises(ValueError, match="summability q must be >= 1"):
            young_convolve(row(1.0), row(1.0, 2.0), 0.5)


class TestTruncate:
    def test_keeps_first_block(self):
        assert np.array_equal(truncate(row(5, 7, 9), 0), row(5, 0, 0))

    def test_identity_beyond_support(self, bank64):
        f = decompose(GridFunction.from_function(np.sin, 64), bank64)
        assert truncate(f, f.last_index) is f
        assert truncate(f, 10) is f
        assert np.array_equal(truncate(row(1, 2, 3), 10), row(1, 2, 3))

    def test_finite_sum_oracle(self):
        f = row(1, 1, 1, 1, 1, 1)
        assert dyadic_norm(truncate(f, 2), (0.0, 1.0))[0] == pytest.approx(3.0)

    def test_projection_and_contraction(self, rng):
        for _ in range(200):
            f = random_row(rng)
            n = int(rng.integers(0, f.shape[1] + 3))
            g = truncate(f, n)
            assert np.array_equal(truncate(g, n), g)
            s = float(rng.uniform(-2, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            assert dyadic_norm(g, (s, q))[0] <= dyadic_norm(f, (s, q))[0] * (1 + 1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            truncate(row(1), -1)


class TestSmoothingGain:
    def test_single_block_saturates(self):
        value, bound = smoothing_gain(row(1.0), 0.0, 1.0, 1.0, 0)
        assert value[0] == 1.0 and bound[0] == 1.0

    def test_finite_sum_oracle(self):
        value, bound = smoothing_gain(row(1, 1, 1, 1, 1), 0.0, 1.0, 1.0, 2)
        assert value[0] == pytest.approx(7.0)
        assert bound[0] == pytest.approx(20.0)

    def test_zero_sequence(self):
        value, bound = smoothing_gain(row(0), 0.0, 1.0, 2.0, 3)
        assert (value[0], bound[0]) == (0.0, 0.0)

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            smoothing_gain(row(1), 1.0, 0.0, 1.0, 0)

    def test_out_of_range_bound_raises(self):
        with pytest.raises(ValueError, match="r=0, r'=300, n=5 leaves float range"):
            smoothing_gain(row(1.0), 0.0, 300.0, 2.0, 5)

    def test_bound_holds_on_random(self, rng):
        for _ in range(1000):
            f = random_row(rng)
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            n = int(rng.integers(0, f.shape[1] + 4))
            value, bound = smoothing_gain(f, r, rp, q, n)
            assert value[0] <= bound[0] * (1 + 1e-9)


class TestYoungConvolve:
    def test_delta_is_identity(self, rng):
        v = rng.normal(size=7)
        result = young_convolve([[1.0]], v[None], 2.0)
        assert np.allclose(result.values[0], v)

    def test_hand_convolution(self):
        result = young_convolve([[1.0, 1.0]], [[1.0, 1.0]], 1.0)
        # brute-force oracle: (u*v)(n) = sum_p u(n-p) v(p)
        def conv(u, v, n):
            return sum(
                u[n - p] * v[p]
                for p in range(len(v))
                if 0 <= n - p < len(u)
            )
        oracle = [conv([1, 1], [1, 1], n) for n in range(3)]
        assert oracle == [1, 2, 1]
        assert np.allclose(result.values[0], oracle)

    def test_zero_factor(self):
        result = young_convolve([[0.0, 0.0]], [[1.0, 2.0]], INF)
        assert result.norm[0] == 0.0

    def test_norm_bound_on_random(self, rng):
        for _ in range(300):
            u = rng.normal(size=(1, int(rng.integers(1, 15))))
            v = rng.normal(size=(1, int(rng.integers(1, 15))))
            for q in (1.0, 2.0, INF):
                result = young_convolve(u, v, q)
                assert result.norm[0] <= result.bound[0] * (1 + 1e-12)

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_norm_survives_power_sum_over_and_underflow(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = young_convolve([[value, value]], [[1.0]], 2.0)
        assert result.norm[0] == pytest.approx(math.sqrt(2.0) * value, rel=1e-13, abs=0.0)
        assert result.bound[0] == pytest.approx(2.0 * value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_out_of_range_convolution_raises(self, q):
        with pytest.raises(ValueError, match=rf"l\^{q:g} norm of u\*v leaves float range"):
            young_convolve([[1e200]], [[1e200]], q)

    @pytest.mark.parametrize("shapes", [((2,), (2,)), ((1, 2), (2,)), ((2, 2), (3, 2))], ids=repr)
    def test_needs_two_batches_of_one_row_per_pair(self, shapes):
        with pytest.raises(ValueError, match="two batches of rows"):
            young_convolve(np.ones(shapes[0]), np.ones(shapes[1]), 2.0)


class TestWeightedSmoothingSum:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_in_range_sum_survives_power_sum_over_and_underflow(self, value, q):
        unit = [x[0] for x in weighted_smoothing_sum(row(1.0, 1.0), 0.0, 1.0, q)]
        scaled = [x[0] for x in weighted_smoothing_sum(row(value, value), 0.0, 1.0, q)]
        assert scaled == pytest.approx([value * unit[0], value * unit[1]], rel=1e-13, abs=0.0)

    def test_single_block_constant(self):
        # sup_n 2^-n ||S_n f||_{1,1} = 1 against 1/(1 - 2^-1) = 2
        value, bound = weighted_smoothing_sum(row(1.0), 0.0, 1.0, INF)
        assert value[0] == 1.0
        assert bound[0] == pytest.approx(2.0, rel=1e-15)

    def test_zero_sequence(self):
        value, bound = weighted_smoothing_sum(row(0), 0.0, 1.0, 1.0)
        assert (value[0], bound[0]) == (0.0, 0.0)

    def test_brute_force_sum_oracle(self):
        value, bound = (x[0] for x in weighted_smoothing_sum(row(1, 1, 1, 1), 0.0, 1.0, 1.0))
        # oracle: exact partial sums for n <= 3 plus the geometric tail
        partial = [sum(2.0**k for k in range(n + 1)) for n in range(4)]
        head = sum(2.0**-n * partial[n] for n in range(4))
        tail = partial[3] * sum(2.0**-n for n in range(4, 60))
        assert head + tail == pytest.approx(8.0, rel=1e-12)
        assert value == pytest.approx(head + tail, rel=1e-12)
        # closed-form constant: ||f||_{0,1} / (1 - 2^-1) = 4 * 2
        assert bound == pytest.approx(8.0, rel=1e-15)
        assert value <= bound * (1 + 1e-12)
        # coarser cap quoted for this example: twice the (1,1) norm
        assert value <= 2.0 * 15.0

    def test_strict_order_precondition(self):
        with pytest.raises(ValueError):
            weighted_smoothing_sum(row(1), 1.0, 1.0, 2.0)

    def test_bound_holds_on_random(self, rng):
        for _ in range(1000):
            f = random_row(rng)
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0.05, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            value, bound = weighted_smoothing_sum(f, r, rp, q)
            assert value[0] <= bound[0] * (1 + 1e-9)


class TestTruncationPowerSum:
    def test_hand_value(self):
        value, bound = truncation_power_sum(row(1, 1, 1, 1), 0.0, 1.0, 1.0)
        # swapping summation order makes the two sides equal: both are 8
        assert value[0] == pytest.approx(8.0, rel=1e-12)
        assert bound[0] == pytest.approx(8.0, rel=1e-12)

    def test_equality_on_random(self, rng):
        for _ in range(300):
            f = random_row(rng, log2_range=(-8, 8))
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0.1, 2))
            q = float(rng.choice([1.0, 2.0]))
            value, bound = truncation_power_sum(f, r, rp, q)
            assert value[0] == pytest.approx(bound[0], rel=1e-9)

    def test_requires_finite_q(self):
        with pytest.raises(ValueError):
            truncation_power_sum(row(1), 0.0, 1.0, INF)


class TestInterpolationBound:
    def test_zero_sequence(self):
        parts = interpolation_bound(row(0), 0.0, 1.0, 2.0, 1.0, 0)
        assert (parts.actual[0], parts.low[0], parts.high[0]) == (0.0, 0.0, 0.0)

    def test_single_block_closed_form(self):
        parts = interpolation_bound(row(1.0), 0.0, 1.0, 2.0, 1.0, 0)
        assert parts.actual[0] == 1.0
        assert parts.low[0] >= 1.0
        assert parts.actual[0] <= parts.low[0] + parts.high[0]

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            interpolation_bound(row(1), 1.0, 1.0, 2.0, 1.0, 0)

    def test_min_over_split_dominates_actual(self, rng):
        for _ in range(300):
            f = random_row(rng, log2_range=(-8, 8))
            s0 = float(rng.uniform(-2, 0))
            s1 = float(rng.uniform(0.5, 2.5))
            s = float(rng.uniform(s0 + 0.05, s1 - 0.05))
            q = float(rng.choice([1.0, 2.0, INF]))
            best = min(
                (lambda p: p.low[0] + p.high[0])(
                    interpolation_bound(f, s0, s, s1, q, n)
                )
                for n in range(f.shape[1] + 4)
            )
            actual = dyadic_norm(f, (s, q))[0]
            assert actual <= best * (1 + 1e-9)


def random_orders(rng):
    s0 = float(rng.uniform(-2, 0))
    s1 = float(rng.uniform(0.5, 2.5))
    return s0, float(rng.uniform(s0 + 0.05, s1 - 0.05)), s1


class TestInterpolationBoundLevels:
    """The array form: one call bounds every split level at once."""

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_entries_match_scalar_calls(self, rng, q):
        for _ in range(100):
            f = random_row(rng, log2_range=(-8, 8))
            s0, s, s1 = random_orders(rng)
            levels = np.arange(f.shape[1] + 4)
            parts = interpolation_bound(f, s0, s, s1, q, levels)
            assert parts.low.shape == parts.high.shape == (1, levels.size)
            assert parts.actual[0] == dyadic_norm(f, (s, q))[0]
            for n in levels.tolist():
                one = interpolation_bound(f, s0, s, s1, q, n)
                assert one.low.shape == one.high.shape == (1,)
                assert one.actual[0] == parts.actual[0]
                assert parts.low[0, n] == pytest.approx(one.low[0], rel=1e-14, abs=0.0)
                assert parts.high[0, n] == pytest.approx(one.high[0], rel=1e-14, abs=0.0)

    def test_zero_sequence(self):
        parts = interpolation_bound(row(0), 0.0, 1.0, 2.0, 2.0, np.arange(5))
        assert parts.actual[0] == 0.0
        assert np.array_equal(parts.low, np.zeros((1, 5)))
        assert np.array_equal(parts.high, np.zeros((1, 5)))

    def test_one_level(self):
        f = row(3.0, -0.5, 0.25)
        parts = interpolation_bound(f, -0.5, 0.5, 1.5, INF, np.array([2]))
        one = interpolation_bound(f, -0.5, 0.5, 1.5, INF, np.int64(2))
        assert one.low.shape == one.high.shape == (1,)
        assert parts.low.shape == parts.high.shape == (1, 1)
        assert parts.low[0, 0] == pytest.approx(one.low[0], rel=1e-14, abs=0.0)
        assert parts.high[0, 0] == pytest.approx(one.high[0], rel=1e-14, abs=0.0)

    def test_no_levels(self):
        f = row(1.0, 2.0)
        parts = interpolation_bound(f, 0.0, 1.0, 2.0, 1.0, np.arange(0))
        assert parts.low.shape == parts.high.shape == (1, 0)
        assert parts.actual[0] == dyadic_norm(f, (1.0, 1.0))[0]

    @pytest.mark.parametrize(
        "n_split",
        [1.5, 2.0, True, False, np.True_, np.array([0.0, 1.0]), np.array([[0, 1]]),
         "2"],
        ids=repr,
    )
    def test_non_integer_levels_rejected(self, n_split):
        with pytest.raises(ValueError):
            interpolation_bound(row(1.0, 2.0), 0.0, 1.0, 2.0, 2.0, n_split)

    @pytest.mark.parametrize("n_split", [-1, np.int64(-3), np.array([0, 4, -1])], ids=repr)
    def test_negative_levels_rejected(self, n_split):
        with pytest.raises(ValueError):
            interpolation_bound(row(1.0, 2.0), 0.0, 1.0, 2.0, 2.0, n_split)

    @pytest.mark.parametrize("n_split", [2000, np.array([0, 1, 2000])], ids=repr)
    @pytest.mark.parametrize("q", [1.0, INF])
    def test_overflowing_prefactor_rejected(self, n_split, q):
        with pytest.raises(ValueError, match="overflows"):
            interpolation_bound(row(0), 0.0, 1.0, 2.0, q, n_split)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(-8.0, 8.0), st.booleans()), min_size=1, max_size=32
        ),
        s0=st.floats(-2.0, 0.0),
        s1=st.floats(0.5, 2.5),
        t=st.floats(0.01, 0.99),
        q=st.sampled_from([1.0, 2.0, INF]),
    )
    def test_best_split_dominates_actual(self, values, s0, s1, t, q):
        f = row(*((-1.0 if neg else 1.0) * 2.0**e for e, neg in values))
        s = s0 + t * (s1 - s0)
        parts = interpolation_bound(f, s0, s, s1, q, np.arange(f.shape[1] + 4))
        assert (parts.low + parts.high).min() >= parts.actual[0] / (1 + 1e-9)


def grid_seq(*rows, n=8):
    """A grid sequence over the n-point grid whose block k is the row rows[k]."""
    return DyadicSequence(grid_l2_space(n), np.array(rows, dtype=float).reshape(len(rows), n))


class TestSequenceAlgebra:
    def test_subtraction_pads_with_zero(self):
        f = grid_seq(np.full(8, 3.0), np.full(8, 2.0), np.full(8, 1.0))
        g = grid_seq(np.ones(8))
        assert np.array_equal((f - g).blocks, np.array([[2.0] * 8, [2.0] * 8, [1.0] * 8]))
        assert np.array_equal((g - f).blocks, -(f - g).blocks)

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError, match="base space mismatch"):
            _ = grid_seq(np.ones(8)) - grid_seq(np.ones(16), n=16)

    def test_report_shape(self):
        report = sequence_report(grid_seq(np.zeros(8), np.full(8, -2.0)))
        assert report["base"] == "L2(torus,8)"
        assert report["block_norms"] == pytest.approx([0.0, 2.0 * math.sqrt(2.0 * math.pi)])


class TestBlockArray:
    """A sequence holds a nonempty (K+1, N) array of grid blocks, nothing else."""

    @pytest.mark.parametrize(
        "blocks", [(), np.zeros(0), np.zeros((0, 8)), np.ones(8), np.ones((1, 2, 8))],
        ids=["()", "(0,)", "(0, N)", "1-D", "3-D"],
    )
    def test_grid_blocks_need_a_nonempty_2d_array(self, blocks):
        with pytest.raises(ValueError, match=r"nonempty \(K\+1, N\) array"):
            DyadicSequence(grid_l2_space(8), blocks)

    @pytest.mark.parametrize("blocks", [(1.0, 2.0), np.ones((2, 8))], ids=["row", "2-D"])
    def test_scalar_base_rejected(self, blocks):
        with pytest.raises(ValueError, match="a row of block norms is a float array"):
            DyadicSequence(scalar_abs_space(), blocks)


# --- the per-block loops of the tuple-backed sequence, kept as the reference --

def loop_block(entries, k, zero):
    return entries[k] if k < len(entries) else zero


def loop_combine(f, g, op, zero):
    n = max(len(f), len(g))
    return tuple(op(loop_block(f, k, zero), loop_block(g, k, zero)) for k in range(n))


def stacked(entries):
    """Grid functions as one (K+1, N) array."""
    return np.array([e.values for e in entries], dtype=float)


@st.composite
def sequence_pairs(draw):
    """(f blocks, g blocks): grid functions on 8 nodes, supports 1 .. 13."""
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    block = st.lists(value, min_size=8, max_size=8).map(GridFunction)
    f = draw(st.lists(block, min_size=1, max_size=13))
    if draw(st.booleans()):  # f padded with zero blocks
        g = f + [GridFunction.zeros(8)] * draw(st.integers(0, 3))
    else:
        g = draw(st.lists(block, min_size=1, max_size=13))
    return tuple(f), tuple(g)


class TestArrayBackedSequence:
    """The one-array sequence reproduces the per-block loops bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        pair=sequence_pairs(),
        c=st.floats(-4.0, 4.0, allow_nan=False),
        n=st.integers(0, 14),
    )
    def test_matches_per_block_loops(self, pair, c, n):
        f_entries, g_entries = pair
        space, zero = grid_l2_space(8), GridFunction.zeros(8)
        f = DyadicSequence(space, stacked(f_entries))
        g = DyadicSequence(space, stacked(g_entries))
        for result, op in (
            (f + g, lambda a, b: a + b),
            (f - g, lambda a, b: a - b),
            (g - f, lambda a, b: b - a),
        ):
            expected = stacked(loop_combine(f_entries, g_entries, op, zero))
            assert np.array_equal(result.blocks, expected)
        scaled = stacked(tuple(e * c for e in f_entries))
        assert np.array_equal((f * c).blocks, scaled)
        assert np.array_equal((c * f).blocks, scaled)

        def loop_norms(entries):
            return np.array([space.eval(e.values) for e in entries], dtype=float)

        head_entries = f_entries[: n + 1]
        fresh = truncate(f, n)  # before f's norms exist: computed by the head
        assert np.array_equal(fresh.blocks, stacked(head_entries))
        assert np.array_equal(fresh.block_norms, loop_norms(head_entries))
        assert np.array_equal(f.block_norms, loop_norms(f_entries))
        assert np.array_equal(truncate(f, n).block_norms, loop_norms(head_entries))
        assert np.array_equal(g.block_norms, loop_norms(g_entries))

    def test_truncation_views_parent_buffer(self, bank64):
        f = decompose(GridFunction.from_function(np.cos, 64), bank64)
        head = truncate(f, 2)
        assert head.blocks.shape == (3, 64)
        assert np.shares_memory(head.blocks, f.blocks)
        assert np.shares_memory(truncate(head, 1).blocks, f.blocks)

    def test_read_only_view_of_writable_array_is_copied(self):
        data = np.arange(16.0).reshape(2, 8)
        view = data[:]
        view.setflags(write=False)
        f = DyadicSequence(grid_l2_space(8), view)
        key = f.key
        data[0, 0] = 99.0  # the caller changes the array it handed over
        assert not np.shares_memory(f.blocks, data)
        assert f.blocks.ravel().tolist() == list(range(16))
        assert f.key == key == grid_seq(*np.arange(16.0).reshape(2, 8)).key
        assert not DyadicSequence(grid_l2_space(8), data).blocks.flags.writeable

    def test_keys_hash_each_row_of_a_buffer_once(self, monkeypatch):
        import besovflow.dyadic as dyadic

        rows, blake2b = [], dyadic.hashlib.blake2b

        def counted(data=b"", **kwargs):
            if isinstance(data, np.ndarray):
                rows.append(data.tolist())
            return blake2b(data, **kwargs)

        monkeypatch.setattr(dyadic.hashlib, "blake2b", counted)
        data = np.arange(32.0).reshape(4, 8)
        f = grid_seq(*data)
        keys = [truncate(f, n).key for n in (1, 3, 0, 2)]  # a head first, then f itself
        assert rows == data.tolist()
        assert len(set(keys)) == 4
        assert keys[0] == grid_seq(*data[:2]).key and keys[1] == f.key
        # distinct per label, shape and data
        space = PseudoNormedSpace("rows", lambda b: np.abs(b).max(axis=-1), "grid_function")
        assert DyadicSequence(space, data).key != f.key
        assert DyadicSequence(space, np.zeros((1, 16))).key != DyadicSequence(
            space, np.zeros((2, 8))
        ).key
        assert grid_seq(*(data + 1.0)).key != f.key

    def test_read_only_array_is_shared(self):
        frozen = np.ones((2, 8))
        frozen.setflags(write=False)
        assert DyadicSequence(grid_l2_space(8), frozen).blocks is frozen
