import math

import numpy as np
import pytest

from besovflow.dyadic import dyadic_norm, random_sequence, truncate
from besovflow.envelope import (
    GUARD,
    c_sequence,
    c_tail_lq,
    compute_envelope,
    envelope_equivalence,
    envelope_report_rows,
    gamma_lq_norm,
)

INF = math.inf


def row(*values):
    """The one-row batch of block norms |v_0| .. |v_K|."""
    return np.abs(np.array([values], dtype=float))


def random_row(rng, **kwargs):
    return random_sequence(rng, 1, **kwargs)


def brute_gamma(values, s, s1, n):
    """Independent oracle: 2^{-n(s1-s)} sum_{k<=n} 2^{k s1} |f_k|."""
    total = sum(2.0 ** (k * s1) * abs(v) for k, v in enumerate(values) if k <= n)
    return 2.0 ** (-n * (s1 - s)) * total


class TestComputeEnvelope:
    def test_single_block_closed_form(self):
        env = compute_envelope(row(1.0), 1.0, 2.0)
        for n in range(env.gamma.shape[1]):
            assert env.gamma[0, n] == pytest.approx(2.0**-n, rel=1e-15)

    def test_zero_sequence(self):
        env = compute_envelope(row(0), 0.0, 1.0)
        assert np.all(env.gamma == 0.0)
        env = compute_envelope(row(0, 0, 0), 0.0, 1.0)
        assert np.all(env.gamma == 0.0)

    def test_one_row_per_row(self):
        env = compute_envelope(np.array([[1.0, 0.0], [0.0, 0.0], [4.0, 1.0]]), 1.0, 2.0)
        assert env.gamma.shape == (3, 2 + GUARD)
        assert env.support == 2
        assert np.array_equal(env.gamma[0], compute_envelope(row(1.0, 0.0), 1.0, 2.0).gamma[0])
        assert not env.gamma[1].any()

    def test_geometric_sum_oracle(self):
        # blocks 4^-k for k = 0..5 at orders (s, s1) = (1, 2):
        # gamma_n = 2^-n (n+1) on the support
        values = [4.0**-k for k in range(6)]
        env = compute_envelope(row(*values), 1.0, 2.0)
        for n in range(6):
            oracle = brute_gamma(values, 1.0, 2.0, n)
            assert oracle == pytest.approx(2.0**-n * (n + 1), rel=1e-12)
            assert env.gamma[0, n] == pytest.approx(oracle, rel=1e-12)

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            compute_envelope(row(1), 2.0, 1.0)

    @pytest.mark.parametrize("s, s1", [(200.0, 201.0), (2.0, 300.0)])
    def test_out_of_float_range_raises(self, s, s1):
        # 2^{14 s1} overflows; with s1 - s large the decay factor also
        # underflows, which would turn the infinite partial sums into nan
        f = row(*([1.0] * 15))
        with pytest.raises(ValueError, match=f"s={s:g}, s1={s1:g} leaves float range"):
            compute_envelope(f, s, s1)

    def test_exact_decay_past_support(self, rng):
        for _ in range(100):
            f = random_row(rng)
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            env = compute_envelope(f, s, s1)
            ratio, gamma = env.decay_ratio, env.gamma[0]
            for n in range(f.shape[1], gamma.size - 1):
                assert gamma[n + 1] == gamma[n] * ratio

    def test_dominates_weighted_blocks(self, rng):
        for _ in range(200):
            f = random_row(rng)
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            env = compute_envelope(f, s, s1)
            weighted = np.exp2(s * np.arange(f.shape[1])) * f[0]
            assert np.all(weighted <= env.gamma[0, : f.shape[1]] * (1 + 1e-12))

    def test_one_sided_slow_variation(self, rng):
        for _ in range(200):
            f = random_row(rng)
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            env = compute_envelope(f, s, s1)
            growth = 2.0 ** (s1 - s)
            gamma = env.gamma[0]
            assert np.all(gamma[:-1] <= growth * gamma[1:] * (1 + 1e-12))


class TestTruncationIdentities:
    """The two envelope identities behind the engine's high/low bounds."""

    def test_truncated_high_norm_is_the_scaled_envelope(self, rng):
        # ||S_n f||_{s1,1} = 2^{n(s1-s)} gamma_n, the envelope's definition
        for _ in range(200):
            f = random_row(rng, max_support=12)
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            gamma = compute_envelope(f, s, s1).gamma[0]
            for n in range(f.shape[1] + 2):
                scaled = 2.0 ** (n * (s1 - s)) * gamma[n]
                assert dyadic_norm(truncate(f, n), (s1, 1.0))[0] == pytest.approx(scaled, rel=1e-12)

    def test_truncation_increment_is_below_the_next_envelope(self, rng):
        # ||S_{n+1} f - S_n f||_{s0,1} <= 2^{-n(s-s0)} gamma_{n+1}
        for _ in range(200):
            f = random_row(rng, max_support=12)
            s = float(rng.uniform(-2, 2))
            s0 = s - float(rng.uniform(0.1, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            gamma = compute_envelope(f, s, s1).gamma[0]
            for n in range(f.shape[1] + 2):
                increment = dyadic_norm(truncate(f, n + 1) - truncate(f, n), (s0, 1.0))[0]
                assert increment <= 2.0 ** (-n * (s - s0)) * gamma[n + 1] * (1 + 1e-12)


class TestTailSumsOutsideThePowerRange:
    """Tail sums whose q-th powers over- or underflow while the sum is in range."""

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("value", [1e200, 1e-200])
    def test_sums_keep_their_scale(self, value, q):
        # (v, v) at s = 0, s1 = 1: gamma = v (1, 3/2, 3/4, ...), rho = 1/2
        f = row(value, value)
        env = compute_envelope(f, 0.0, 1.0)
        unit = compute_envelope(row(1.0, 1.0), 0.0, 1.0)
        norm = gamma_lq_norm(env, q)[0]
        assert norm == pytest.approx(value * gamma_lq_norm(unit, q)[0], rel=1e-13, abs=0.0)
        for n in range(3):
            tail = c_tail_lq(env, n, q)[0]
            assert tail == pytest.approx(value * c_tail_lq(unit, n, q)[0], rel=1e-13, abs=0.0)
        lower, mid, upper = (x[0] for x in envelope_equivalence(f, 0.0, q, 1.0))
        assert 0.0 < lower <= mid <= upper

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_sums_out_of_range_raise(self, q):
        # gamma_n = 1e308 2^{-n/10}: every entry in range, its l^q norm is not
        env = compute_envelope(row(1e308, 0.0, 0.0, 0.0), 0.0, 0.1)
        with pytest.raises(ValueError, match=f"l\\^{q:g} norm of the envelope leaves float range"):
            gamma_lq_norm(env, q)
        for n in (0, 3):  # through the power sum, and inside the geometric regime
            with pytest.raises(ValueError, match=f"tail from n={n} leaves float range"):
                c_tail_lq(env, n, q)

    def test_in_range_sums_keep_their_bits(self, rng):
        # the closed forms as written before the rescaled path existed, with numpy's power
        for _ in range(300):
            f = random_row(rng)
            support = f.shape[1]
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            q = float(rng.choice([1.0, 1.5, 2.0]))
            env = compute_envelope(f, s, s1)
            gamma, rho = env.gamma[0], env.decay_ratio
            head = gamma[:support]
            last = float(head[-1])
            plain = np.sum(head**q) + np.power(last, q) * rho**q / (1.0 - rho**q)
            plain = float(np.power(plain, 1.0 / q))
            assert gamma_lq_norm(env, q)[0] == plain
            n = int(rng.integers(0, support - 1)) if support > 1 else 0
            if n < support - 1:
                k = support - 1
                c = gamma[n:k] + gamma[n + 1 : k + 1]
                c_last = float(gamma[k] * (1.0 + rho))
                tail = np.power(c_last, q) / (1.0 - np.power(rho, q))
                assert c_tail_lq(env, n, q)[0] == float(np.power(np.sum(c**q) + tail, 1.0 / q))


class TestEnvelopeEquivalence:
    def test_zero_sequence(self):
        assert [x[0] for x in envelope_equivalence(row(0), 0.0, 2.0, 1.0)] == [0.0, 0.0, 0.0]

    def test_single_block_sup_case(self):
        lower, mid, upper = (x[0] for x in envelope_equivalence(row(1.0), 1.0, INF, 2.0))
        assert lower == pytest.approx(0.5, rel=1e-15)
        assert mid == 1.0
        assert upper == pytest.approx(1.0, rel=1e-15)

    def test_ordering_on_random(self, rng):
        for _ in range(1000):
            f = random_row(rng)
            s = float(rng.uniform(-2, 2))
            s1 = s + float(rng.uniform(0.1, 2))
            q = float(rng.choice([1.0, 2.0, INF]))
            lower, mid, upper = (x[0] for x in envelope_equivalence(f, s, q, s1))
            assert lower <= mid * (1 + 1e-9)
            assert mid <= upper * (1 + 1e-9)

    def test_gamma_norm_tail_is_closed_form(self):
        # single block: gamma_n = 2^-n, so ||gamma||_1 = 2 and ||gamma||_2
        # = sqrt(4/3) once the whole geometric tail is included
        env = compute_envelope(row(1.0), 1.0, 2.0)
        assert gamma_lq_norm(env, 1.0)[0] == pytest.approx(2.0, rel=1e-12)
        assert gamma_lq_norm(env, 2.0)[0] == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert gamma_lq_norm(env, INF)[0] == 1.0


class TestCSequence:
    def test_zero(self):
        env = compute_envelope(row(0), 0.0, 1.0)
        assert np.all(c_sequence(env) == 0.0)

    def test_geometric_envelope(self):
        env = compute_envelope(row(1.0), 1.0, 2.0)
        c = c_sequence(env)[0]
        for n in range(c.size):
            assert c[n] == pytest.approx(3.0 * 2.0 ** (-n - 1), rel=1e-14)

    def test_matches_elementwise_sum(self, rng):
        for _ in range(100):
            f = random_row(rng)
            gamma = compute_envelope(f, 0.0, 1.0).gamma[0]
            c = c_sequence(compute_envelope(f, 0.0, 1.0))
            assert np.array_equal(c, (gamma[:-1] + gamma[1:])[None])

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_tails_one_per_row(self, rng, q):
        # per-row orders; each tail matches the one-row call on its row
        norms = np.abs(rng.standard_normal((6, 5)))
        s = rng.uniform(-1, 1, 6)
        s1 = s + rng.uniform(0.2, 1.5, 6)
        env = compute_envelope(norms, s, s1)
        for n in (0, 2, 4, 7):
            tails = c_tail_lq(env, n, q)
            assert tails.shape == (6,)
            for i in range(6):
                one = c_tail_lq(compute_envelope(norms[i : i + 1], s[i], s1[i]), n, q)[0]
                assert tails[i] == pytest.approx(one, rel=1e-13, abs=0.0)

    def test_tail_closed_form_matches_brute_force(self, rng):
        for _ in range(100):
            f = random_row(rng, max_support=8)
            s = float(rng.uniform(-1, 1))
            s1 = s + float(rng.uniform(0.2, 1.5))
            q = float(rng.choice([1.0, 2.0, INF]))
            n = int(rng.integers(0, f.shape[1] + 3))
            env = compute_envelope(f, s, s1)
            # brute force: extend the recursion far enough that the rest is
            # negligible, then sum directly
            gamma = list(env.gamma[0])
            while len(gamma) < n + 600:
                gamma.append(gamma[-1] * env.decay_ratio)
            c = [gamma[p] + gamma[p + 1] for p in range(len(gamma) - 1)]
            if math.isinf(q):
                oracle = max(c[n:])
            else:
                oracle = sum(v**q for v in c[n:]) ** (1.0 / q)
            assert c_tail_lq(env, n, q)[0] == pytest.approx(oracle, rel=1e-9)


class TestEnvelopeReport:
    def test_rows_shape_and_content(self):
        env = compute_envelope(row(1.0, 0.5), 1.0, 2.0)
        (rows,) = envelope_report_rows(env)
        assert rows[0][0] == 0
        n, gamma_n, c_n, weighted = rows[0]
        assert gamma_n == env.gamma[0, 0]
        assert c_n == env.gamma[0, 0] + env.gamma[0, 1]
        assert weighted == 1.0  # 2^{0*s} * |f_0|
        assert rows[1][3] == 0.5 * 2.0  # 2^{1*s} * |f_1|
        # beyond the support the weighted block norm is zero
        assert rows[-1][3] == 0.0

    def test_one_list_per_row(self):
        env = compute_envelope(np.array([[1.0, 0.5], [2.0, 0.0]]), np.array([1.0, 0.0]), 2.0)
        first, second = envelope_report_rows(env)
        assert first == envelope_report_rows(compute_envelope(row(1.0, 0.5), 1.0, 2.0))[0]
        assert [r[3] for r in second[:2]] == [2.0, 0.0]
