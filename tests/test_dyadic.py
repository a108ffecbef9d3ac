import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovflow.dyadic import (
    DyadicSequence,
    ScaleIndex,
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
from besovflow.pseudonorm import scalar_abs_space

INF = math.inf


def scalar_seq(*values):
    return DyadicSequence(scalar_abs_space(), tuple(float(v) for v in values))


def brute_norm(values, s, q):
    """Independent finite-sum oracle for the weighted block norm."""
    weighted = [2.0 ** (k * s) * abs(v) for k, v in enumerate(values)]
    if math.isinf(q):
        return max(weighted, default=0.0)
    return sum(w**q for w in weighted) ** (1.0 / q)


class TestDyadicNorm:
    def test_single_block_any_scale(self):
        f = scalar_seq(1.0)
        for s in (-2.0, 0.0, 3.5):
            for q in (1.0, 2.0, INF):
                assert dyadic_norm(f, (s, q)) == 1.0

    def test_finite_sum_oracle(self):
        f = scalar_seq(1, 1, 1, 1)
        assert brute_norm(f.blocks, 1.0, 1.0) == 15.0
        assert dyadic_norm(f, (1.0, 1.0)) == pytest.approx(15.0, rel=1e-15)

    def test_sup_of_balanced_sequence(self):
        f = scalar_seq(*(2.0 ** (-k) for k in range(10)))
        assert dyadic_norm(f, (1.0, INF)) == 1.0

    def test_zero_iff_zero_sequence(self):
        assert dyadic_norm(scalar_seq(), (1.0, 2.0)) == 0.0
        assert dyadic_norm(scalar_seq(0, 0), (1.0, 2.0)) == 0.0
        assert dyadic_norm(scalar_seq(0, 1e-300), (0.0, 1.0)) > 0.0

    def test_overflow_outcome(self):
        f = scalar_seq(1.0, 1.0)
        with pytest.raises(ValueError, match=r"\(s, q\) = \(5000, 1\) dyadic norm leaves float range"):
            dyadic_norm(f, (5000.0, 1.0))
        with pytest.raises(ValueError, match=r"\(5000, inf\)"):
            dyadic_norm(f, (5000.0, INF))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_in_range_norm_survives_power_sum_over_and_underflow(self, value, q):
        assert dyadic_norm(scalar_seq(value), (0.0, q)) == pytest.approx(value, rel=1e-13, abs=0.0)
        pair = dyadic_norm(scalar_seq(value, value), (0.0, q))
        assert pair == pytest.approx(2.0 ** (1.0 / q) * value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_out_of_range_norm_raises(self, q):
        with pytest.raises(ValueError, match=rf"\(s, q\) = \(0, {q:g}\) dyadic norm leaves float range"):
            dyadic_norm(scalar_seq(*[1e308] * 4), (0.0, q))

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_weighted_sum_overflow_raises(self, q):
        with pytest.raises(ValueError, match="r=0, r'=5000 leaves float range"):
            weighted_smoothing_sum(scalar_seq(1.0, 1.0), 0.0, 5000.0, q)

    def test_power_sum_overflow_raises(self):
        with pytest.raises(ValueError, match="r=0, r'=5000 leaves float range"):
            truncation_power_sum(scalar_seq(1.0, 1.0), 0.0, 5000.0, 2.0)

    def test_power_sum_of_an_in_range_norm_can_overflow(self):
        with pytest.raises(ValueError, match="r=0, r'=1 leaves float range"):
            truncation_power_sum(scalar_seq(1e200), 0.0, 1.0, 2.0)

    def test_non_finite_block_norm_named(self):
        from besovflow.littlewood_paley import grid_l2_space

        blocks = np.ones((3, 8))
        blocks[1] = 1e308  # its L2 norm, about 2.5e308, leaves float range
        f = DyadicSequence(grid_l2_space(8), blocks)
        with pytest.raises(ValueError, match="block 1 has non-finite"):
            f.block_norms

    def test_matches_oracle_on_random(self, rng):
        for _ in range(200):
            f = scalar_seq(*random_sequence(rng))
            s = float(rng.uniform(-3, 3))
            q = float(rng.choice([1.0, 1.5, 2.0, INF]))
            assert dyadic_norm(f, (s, q)) == pytest.approx(
                brute_norm(f.blocks, s, q), rel=1e-12
            )

    def test_scale_monotonicity_and_embeddings(self, rng):
        for _ in range(200):
            f = scalar_seq(*random_sequence(rng))
            s = float(rng.uniform(-2, 2))
            sp = s + float(rng.uniform(0, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            assert dyadic_norm(f, (sp, q)) >= dyadic_norm(f, (s, q)) * (1 - 1e-12)
            n_inf = dyadic_norm(f, (s, INF))
            n_q = dyadic_norm(f, (s, 2.0))
            n_one = dyadic_norm(f, (s, 1.0))
            assert n_inf <= n_q * (1 + 1e-12)
            assert n_q <= n_one * (1 + 1e-12)

    def test_scale_index_validation(self):
        with pytest.raises(ValueError):
            ScaleIndex(0.0, 0.5)


class TestTruncate:
    def test_keeps_first_block(self):
        f = scalar_seq(5, 7, 9)
        assert truncate(f, 0) == scalar_seq(5)
        assert truncate(f, 0) == scalar_seq(5, 0, 0)

    def test_identity_beyond_support(self):
        f = scalar_seq(1, 2, 3)
        assert truncate(f, 2) is f
        assert truncate(f, 10) is f

    def test_finite_sum_oracle(self):
        f = scalar_seq(1, 1, 1, 1, 1, 1)
        assert dyadic_norm(truncate(f, 2), (0.0, 1.0)) == pytest.approx(3.0)

    def test_projection_and_contraction(self, rng):
        for _ in range(200):
            f = scalar_seq(*random_sequence(rng))
            n = int(rng.integers(0, f.support + 3))
            g = truncate(f, n)
            assert truncate(g, n) == g
            s = float(rng.uniform(-2, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            assert dyadic_norm(g, (s, q)) <= dyadic_norm(f, (s, q)) * (1 + 1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            truncate(scalar_seq(1), -1)


class TestSmoothingGain:
    def test_single_block_saturates(self):
        f = scalar_seq(1.0)
        value, bound = smoothing_gain(f, 0.0, 1.0, 1.0, 0)
        assert value == 1.0 and bound == 1.0

    def test_finite_sum_oracle(self):
        f = scalar_seq(1, 1, 1, 1, 1)
        value, bound = smoothing_gain(f, 0.0, 1.0, 1.0, 2)
        assert value == pytest.approx(7.0)
        assert bound == pytest.approx(20.0)

    def test_zero_sequence(self):
        value, bound = smoothing_gain(scalar_seq(), 0.0, 1.0, 2.0, 3)
        assert (value, bound) == (0.0, 0.0)

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            smoothing_gain(scalar_seq(1), 1.0, 0.0, 1.0, 0)

    def test_out_of_range_bound_raises(self):
        f = DyadicSequence(scalar_abs_space(), (1.0,))
        with pytest.raises(ValueError, match="r=0, r'=300, n=5 leaves float range"):
            smoothing_gain(f, 0.0, 300.0, 2.0, 5)

    def test_bound_holds_on_random(self, rng):
        for _ in range(1000):
            f = scalar_seq(*random_sequence(rng))
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            n = int(rng.integers(0, f.support + 4))
            value, bound = smoothing_gain(f, r, rp, q, n)
            assert value <= bound * (1 + 1e-9)


class TestYoungConvolve:
    def test_delta_is_identity(self, rng):
        v = rng.normal(size=7)
        result = young_convolve([1.0], v, 2.0)
        assert np.allclose(result.values, v)

    def test_hand_convolution(self):
        result = young_convolve([1.0, 1.0], [1.0, 1.0], 1.0)
        # brute-force oracle: (u*v)(n) = sum_p u(n-p) v(p)
        def conv(u, v, n):
            return sum(
                u[n - p] * v[p]
                for p in range(len(v))
                if 0 <= n - p < len(u)
            )
        oracle = [conv([1, 1], [1, 1], n) for n in range(3)]
        assert oracle == [1, 2, 1]
        assert np.allclose(result.values, oracle)

    def test_zero_factor(self):
        result = young_convolve([0.0, 0.0], [1.0, 2.0], INF)
        assert result.norm == 0.0

    def test_norm_bound_on_random(self, rng):
        for _ in range(300):
            u = rng.normal(size=int(rng.integers(1, 15)))
            v = rng.normal(size=int(rng.integers(1, 15)))
            for q in (1.0, 2.0, INF):
                result = young_convolve(u, v, q)
                assert result.norm <= result.bound * (1 + 1e-12)

    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_norm_survives_power_sum_over_and_underflow(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = young_convolve([value, value], [1.0], 2.0)
        assert result.norm == pytest.approx(math.sqrt(2.0) * value, rel=1e-13, abs=0.0)
        assert result.bound == pytest.approx(2.0 * value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_out_of_range_convolution_raises(self, q):
        with pytest.raises(ValueError, match=rf"l\^{q:g} norm of u\*v leaves float range"):
            young_convolve([1e200], [1e200], q)


class TestWeightedSmoothingSum:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_in_range_sum_survives_power_sum_over_and_underflow(self, value, q):
        unit = weighted_smoothing_sum(scalar_seq(1.0, 1.0), 0.0, 1.0, q)
        scaled = weighted_smoothing_sum(scalar_seq(value, value), 0.0, 1.0, q)
        assert scaled == pytest.approx((value * unit[0], value * unit[1]), rel=1e-13, abs=0.0)

    def test_single_block_constant(self):
        # sup_n 2^-n ||S_n f||_{1,1} = 1 against 1/(1 - 2^-1) = 2
        f = scalar_seq(1.0)
        value, bound = weighted_smoothing_sum(f, 0.0, 1.0, INF)
        assert value == 1.0
        assert bound == pytest.approx(2.0, rel=1e-15)

    def test_zero_sequence(self):
        assert weighted_smoothing_sum(scalar_seq(), 0.0, 1.0, 1.0) == (0.0, 0.0)

    def test_brute_force_sum_oracle(self):
        f = scalar_seq(1, 1, 1, 1)
        value, bound = weighted_smoothing_sum(f, 0.0, 1.0, 1.0)
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
            weighted_smoothing_sum(scalar_seq(1), 1.0, 1.0, 2.0)

    def test_bound_holds_on_random(self, rng):
        for _ in range(1000):
            f = scalar_seq(*random_sequence(rng))
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0.05, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            value, bound = weighted_smoothing_sum(f, r, rp, q)
            assert value <= bound * (1 + 1e-9)


class TestTruncationPowerSum:
    def test_hand_value(self):
        f = scalar_seq(1, 1, 1, 1)
        value, bound = truncation_power_sum(f, 0.0, 1.0, 1.0)
        # swapping summation order makes the two sides equal: both are 8
        assert value == pytest.approx(8.0, rel=1e-12)
        assert bound == pytest.approx(8.0, rel=1e-12)

    def test_equality_on_random(self, rng):
        for _ in range(300):
            f = scalar_seq(*random_sequence(rng, log2_range=(-8, 8)))
            r = float(rng.uniform(-2, 2))
            rp = r + float(rng.uniform(0.1, 2))
            q = float(rng.choice([1.0, 2.0]))
            value, bound = truncation_power_sum(f, r, rp, q)
            assert value == pytest.approx(bound, rel=1e-9)

    def test_requires_finite_q(self):
        with pytest.raises(ValueError):
            truncation_power_sum(scalar_seq(1), 0.0, 1.0, INF)


class TestInterpolationBound:
    def test_zero_sequence(self):
        parts = interpolation_bound(scalar_seq(), 0.0, 1.0, 2.0, 1.0, 0)
        assert (parts.actual, parts.low, parts.high) == (0.0, 0.0, 0.0)

    def test_single_block_closed_form(self):
        f = scalar_seq(1.0)
        parts = interpolation_bound(f, 0.0, 1.0, 2.0, 1.0, 0)
        assert parts.actual == 1.0
        assert parts.low >= 1.0
        assert parts.actual <= parts.low + parts.high

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            interpolation_bound(scalar_seq(1), 1.0, 1.0, 2.0, 1.0, 0)

    def test_min_over_split_dominates_actual(self, rng):
        for _ in range(300):
            f = scalar_seq(*random_sequence(rng, log2_range=(-8, 8)))
            s0 = float(rng.uniform(-2, 0))
            s1 = float(rng.uniform(0.5, 2.5))
            s = float(rng.uniform(s0 + 0.05, s1 - 0.05))
            q = float(rng.choice([1.0, 2.0, INF]))
            best = min(
                (lambda p: p.low + p.high)(
                    interpolation_bound(f, s0, s, s1, q, n)
                )
                for n in range(f.support + 4)
            )
            actual = dyadic_norm(f, (s, q))
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
            f = scalar_seq(*random_sequence(rng, log2_range=(-8, 8)))
            s0, s, s1 = random_orders(rng)
            levels = np.arange(f.support + 4)
            parts = interpolation_bound(f, s0, s, s1, q, levels)
            assert parts.low.shape == parts.high.shape == levels.shape
            assert parts.actual == dyadic_norm(f, (s, q))
            for n in levels.tolist():
                one = interpolation_bound(f, s0, s, s1, q, n)
                assert type(one.low) is float and type(one.high) is float
                assert one.actual == parts.actual
                assert parts.low[n] == pytest.approx(one.low, rel=1e-14, abs=0.0)
                assert parts.high[n] == pytest.approx(one.high, rel=1e-14, abs=0.0)

    def test_zero_sequence(self):
        parts = interpolation_bound(scalar_seq(), 0.0, 1.0, 2.0, 2.0, np.arange(5))
        assert parts.actual == 0.0
        assert np.array_equal(parts.low, np.zeros(5))
        assert np.array_equal(parts.high, np.zeros(5))

    def test_one_level(self):
        f = scalar_seq(3.0, -0.5, 0.25)
        parts = interpolation_bound(f, -0.5, 0.5, 1.5, INF, np.array([2]))
        one = interpolation_bound(f, -0.5, 0.5, 1.5, INF, np.int64(2))
        assert type(one.low) is float and type(one.high) is float
        assert parts.low.shape == parts.high.shape == (1,)
        assert parts.low[0] == pytest.approx(one.low, rel=1e-14, abs=0.0)
        assert parts.high[0] == pytest.approx(one.high, rel=1e-14, abs=0.0)

    def test_no_levels(self):
        f = scalar_seq(1.0, 2.0)
        parts = interpolation_bound(f, 0.0, 1.0, 2.0, 1.0, np.arange(0))
        assert parts.low.shape == parts.high.shape == (0,)
        assert parts.actual == dyadic_norm(f, (1.0, 1.0))

    @pytest.mark.parametrize(
        "n_split",
        [1.5, 2.0, True, False, np.True_, np.array([0.0, 1.0]), np.array([[0, 1]]),
         "2"],
        ids=repr,
    )
    def test_non_integer_levels_rejected(self, n_split):
        with pytest.raises(ValueError):
            interpolation_bound(scalar_seq(1.0, 2.0), 0.0, 1.0, 2.0, 2.0, n_split)

    @pytest.mark.parametrize("n_split", [-1, np.int64(-3), np.array([0, 4, -1])], ids=repr)
    def test_negative_levels_rejected(self, n_split):
        with pytest.raises(ValueError):
            interpolation_bound(scalar_seq(1.0, 2.0), 0.0, 1.0, 2.0, 2.0, n_split)

    @pytest.mark.parametrize("n_split", [2000, np.array([0, 1, 2000])], ids=repr)
    @pytest.mark.parametrize("q", [1.0, INF])
    def test_overflowing_prefactor_rejected(self, n_split, q):
        with pytest.raises(ValueError, match="overflows"):
            interpolation_bound(scalar_seq(), 0.0, 1.0, 2.0, q, n_split)

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
        f = scalar_seq(*((-1.0 if neg else 1.0) * 2.0**e for e, neg in values))
        s = s0 + t * (s1 - s0)
        parts = interpolation_bound(f, s0, s, s1, q, np.arange(f.support + 4))
        assert (parts.low + parts.high).min() >= parts.actual / (1 + 1e-9)


class TestSequenceAlgebra:
    def test_subtraction_pads_with_zero(self):
        f = scalar_seq(3, 2, 1)
        g = scalar_seq(1)
        assert (f - g) == scalar_seq(2, 2, 1)
        assert (g - f) == scalar_seq(-2, -2, -1)

    def test_base_mismatch_rejected(self):
        f = scalar_seq(1)
        g = DyadicSequence(scalar_abs_space("other"), (1.0,))
        with pytest.raises(ValueError):
            _ = f - g

    def test_report_shape(self):
        report = sequence_report(scalar_seq(1, -2))
        assert report["base"] == "abs"
        assert report["block_norms"] == [1.0, 2.0]


# --- the per-block loops of the tuple-backed sequence, kept as the reference --

def loop_block(entries, k, zero):
    return entries[k] if k < len(entries) else zero


def loop_combine(f, g, op, zero):
    n = max(len(f), len(g))
    return tuple(op(loop_block(f, k, zero), loop_block(g, k, zero)) for k in range(n))


def loop_equal(f, g, zero):
    n = max(len(f), len(g))
    return all(
        bool(np.all(loop_block(f, k, zero) == loop_block(g, k, zero))) for k in range(n)
    )


def stacked(entries, block_shape):
    """Block elements (floats or GridFunctions) as one (K+1, *block_shape) array."""
    rows = [np.asarray(getattr(e, "values", e), dtype=float) for e in entries]
    return np.array(rows, dtype=float).reshape(len(rows), *block_shape)


@st.composite
def sequence_pairs(draw):
    """(space, zero, block shape, f blocks, g blocks) with supports 0 .. 12."""
    grid = draw(st.booleans())
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    if grid:
        from besovflow.littlewood_paley import GridFunction, grid_l2_space

        block = st.lists(value, min_size=8, max_size=8).map(GridFunction)
        space, zero, shape = grid_l2_space(8), GridFunction.zeros(8), (8,)
    else:
        block = value
        space, zero, shape = scalar_abs_space(), 0.0, ()
    f = draw(st.lists(block, max_size=13))
    if draw(st.booleans()):  # f padded with zero blocks: equal to f
        g = f + [zero] * draw(st.integers(0, 3))
    else:
        g = draw(st.lists(block, max_size=13))
    return space, zero, shape, tuple(f), tuple(g)


class TestArrayBackedSequence:
    """The one-array sequence reproduces the per-block loops bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        pair=sequence_pairs(),
        c=st.floats(-4.0, 4.0, allow_nan=False),
        n=st.integers(0, 14),
    )
    def test_matches_per_block_loops(self, pair, c, n):
        space, zero, shape, f_entries, g_entries = pair
        f = DyadicSequence(space, stacked(f_entries, shape))
        g = DyadicSequence(space, stacked(g_entries, shape))
        assert (f == g) == loop_equal(f_entries, g_entries, zero)
        for result, op in (
            (f + g, lambda a, b: a + b),
            (f - g, lambda a, b: a - b),
            (g - f, lambda a, b: b - a),
        ):
            expected = stacked(loop_combine(f_entries, g_entries, op, zero), shape)
            assert np.array_equal(result.blocks.reshape(expected.shape), expected)
        scaled = stacked(tuple(e * c for e in f_entries), shape)
        assert np.array_equal((f * c).blocks.reshape(scaled.shape), scaled)
        assert np.array_equal((c * f).blocks.reshape(scaled.shape), scaled)

        def loop_norms(entries):
            return np.array([space.eval(e) for e in entries], dtype=float)

        head_entries = f_entries[: n + 1]
        fresh = truncate(f, n)  # before f's norms exist: computed by the head
        assert np.array_equal(fresh.blocks.reshape(-1, *shape), stacked(head_entries, shape))
        assert np.array_equal(fresh.block_norms, loop_norms(head_entries))
        assert np.array_equal(f.block_norms, loop_norms(f_entries))
        assert np.array_equal(truncate(f, n).block_norms, loop_norms(head_entries))
        assert np.array_equal(g.block_norms, loop_norms(g_entries))

    def test_truncation_views_parent_buffer(self, bank64):
        from besovflow.littlewood_paley import GridFunction, decompose

        f = decompose(GridFunction.from_function(np.cos, 64), bank64)
        head = truncate(f, 2)
        assert head.blocks.shape == (3, 64)
        assert np.shares_memory(head.blocks, f.blocks)
        assert np.shares_memory(truncate(head, 1).blocks, f.blocks)

    def test_read_only_view_of_writable_array_is_copied(self):
        data = np.array([1.0, 2.0, 3.0])
        view = data[:]
        view.setflags(write=False)
        f = DyadicSequence(scalar_abs_space(), view)
        key = f.key
        data[0] = 99.0  # the caller changes the array it handed over
        assert not np.shares_memory(f.blocks, data)
        assert f.blocks.tolist() == [1.0, 2.0, 3.0]
        assert f.key == key == scalar_seq(1, 2, 3).key
        assert not DyadicSequence(scalar_abs_space(), data).blocks.flags.writeable

    def test_read_only_array_is_shared(self):
        frozen = np.array([1.0, 2.0])
        frozen.setflags(write=False)
        assert DyadicSequence(scalar_abs_space(), frozen).blocks is frozen
