import math

import numpy as np
import pytest

from besovflow.dyadic import (
    DyadicSequence,
    dyadic_norm,
    interpolation_bound,
    random_sequence,
    truncate,
)
from besovflow.engine import (
    SLACK,
    BallViolationError,
    Check,
    FlowMapAdapter,
    HypothesisReport,
    block_decay_profile,
    continuity_probe,
    convergence_report,
    estimate_constants,
    high_low_rows,
)
from besovflow.pseudonorm import scalar_abs_space

INF = math.inf


def scalar_seq(*values):
    return DyadicSequence(scalar_abs_space(), tuple(float(v) for v in values))


def identity_adapter(radius=100.0, scale=(0.0, 1.0, 2.0), q=2.0):
    s0, s, s1 = scale
    return FlowMapAdapter(phi=lambda fs: fs, radius=radius, s0=s0, s=s, s1=s1, q=q)


def zero_adapter(radius=100.0, scale=(0.0, 1.0, 2.0), q=2.0):
    s0, s, s1 = scale
    return FlowMapAdapter(
        phi=lambda fs: [scalar_seq() for _ in fs], radius=radius, s0=s0, s=s, s1=s1, q=q
    )


def small_sequences(rng, count, radius, s, q):
    out = []
    while len(out) < count:
        f = scalar_seq(*random_sequence(rng, max_support=8, log2_range=(-4.0, 2.0)))
        if dyadic_norm(f, (s, q)) < 0.5 * radius:
            out.append(f)
    return out


class TestAdapter:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            FlowMapAdapter(phi=lambda fs: fs, radius=1.0, s0=2.0, s=1.0, s1=3.0, q=2.0)
        with pytest.raises(ValueError):
            FlowMapAdapter(phi=lambda fs: fs, radius=-1.0, s0=0.0, s=1.0, s1=2.0, q=2.0)

    def test_ball_enforced(self):
        adapter = identity_adapter(radius=1.0)
        with pytest.raises(BallViolationError):
            adapter(scalar_seq(5.0))

    def test_memoization_returns_same_object(self):
        calls = []

        def phi(fs):
            calls.append(len(fs))
            return fs

        adapter = FlowMapAdapter(phi=phi, radius=10.0, s0=0, s=1, s1=2, q=2.0)
        f = scalar_seq(1.0, 0.5)
        adapter(f)
        adapter(DyadicSequence(f.base, f.blocks.copy()))
        assert len(calls) == 1

    def test_request_maps_each_distinct_block_data_once(self):
        mapped = []

        def phi(fs):
            mapped.append(len(fs))
            return fs

        adapter = FlowMapAdapter(phi=phi, radius=10.0, s0=0, s=1, s1=2, q=2.0)
        f = scalar_seq(*np.array([1.0, 0.5]))
        twin = scalar_seq(*np.array([1.0, 0.5]))  # equal data, other block objects
        images = adapter([f, twin, truncate(f, 0), f, truncate(f, 0)])
        assert mapped == [2]
        assert images[0] is images[1] is images[3]
        assert images[2] is images[4] and images[2].blocks.tolist() == [1.0]
        assert adapter(truncate(twin, 0)) is images[2]

    def test_without_memo_each_request_maps_again(self):
        mapped = []

        def phi(fs):
            mapped.append(len(fs))
            return [DyadicSequence(f.base, f.blocks) for f in fs]  # a new image per call

        adapter = FlowMapAdapter(phi=phi, radius=10.0, s0=0, s=1, s1=2, q=2.0, memoize=False)
        f = scalar_seq(*np.array([1.0, 0.5]))
        twin = scalar_seq(*np.array([1.0, 0.5]))  # equal data, other block objects
        images = adapter([f, twin, truncate(f, 0), f, truncate(twin, 0)])
        assert mapped == [2]
        assert images[0] is images[1] is images[3] and images[2] is images[4]
        again = adapter([f, truncate(f, 0)])
        assert mapped == [2, 2] and again[0] is not images[0] and again[0] == images[0]
        assert adapter._cache == {}


class TestEstimateConstants:
    def test_identity_constants_at_most_one(self, rng):
        adapter = identity_adapter()
        samples = small_sequences(rng, 6, adapter.radius, adapter.s, adapter.q)
        pairs = [(samples[i], samples[j]) for i in range(len(samples)) for j in range(i)]
        report = estimate_constants(adapter, pairs)
        assert 0.0 < report.C0_hat <= 1.0 + 1e-12
        assert 0.0 < report.C1_hat <= 1.0 + 1e-12
        assert report.kappa == 1.0
        assert report.C == pytest.approx(
            max(report.C0_hat, 3.0 * report.C1_hat), rel=1e-15
        )

    def test_zero_map(self, rng):
        adapter = zero_adapter()
        samples = small_sequences(rng, 4, adapter.radius, adapter.s, adapter.q)
        pairs = [(samples[0], samples[1]), (samples[2], samples[3])]
        report = estimate_constants(adapter, pairs)
        assert report.C0_hat == 0.0
        assert report.C1_hat == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_constants(identity_adapter(), [])

    def test_sample_outside_ball_rejected(self):
        adapter = identity_adapter(radius=1.0)
        with pytest.raises(BallViolationError):
            estimate_constants(adapter, [(scalar_seq(9.0), scalar_seq(0.1))])

    def test_smooth_only_mode_reported(self, rng):
        adapter = identity_adapter()
        samples = small_sequences(rng, 4, adapter.radius, adapter.s, adapter.q)
        report = estimate_constants(
            adapter, [(samples[0], samples[1])], smooth_only=True
        )
        assert report.smooth_only
        assert report.C0_hat <= 1.0 + 1e-12

    def test_estimates_stabilize_with_more_samples(self, rng):
        # diagonal map with bounded blockwise gains: a genuine non-identity
        gains = [1.0, 0.7, 1.3, 0.5, 1.1, 0.9, 1.2, 0.8]

        def phi(fs):
            return [
                DyadicSequence(f.base, tuple(g * v for g, v in zip(gains, f.blocks.tolist())))
                for f in fs
            ]

        adapter = FlowMapAdapter(phi=phi, radius=1e6, s0=0, s=1, s1=2, q=2.0)
        samples = small_sequences(rng, 12, adapter.radius, adapter.s, adapter.q)
        pairs = [(samples[i], samples[j]) for i in range(len(samples)) for j in range(i)]
        half = estimate_constants(adapter, pairs[: len(pairs) // 2])
        full = estimate_constants(adapter, pairs)
        assert half.C0_hat <= full.C0_hat  # maxima over nested sets
        assert 0.5 <= half.C0_hat / full.C0_hat <= 1.0


class TestCheck:
    def test_fails_only_beyond_the_relative_slack(self):
        assert SLACK == 1e-9
        assert not Check("f", (), 1.0 + 0.5e-9, 1.0).failed
        assert Check("f", (), 1.0 + 2e-9, 1.0).failed
        assert not Check("f", (), 0.0, 0.0).failed
        assert Check("f", (), 1e-300, 0.0).failed

    def test_frozen_and_slotted(self):
        check = Check("f", (("n", 1),), 1.0, 2.0)
        assert not hasattr(check, "__dict__")
        with pytest.raises(AttributeError):
            check.lhs = 3.0


class TestHighLowRows:
    def test_two_checks_per_level_high_first(self):
        f = scalar_seq(1.0, 0.5, 0.25)
        adapter = identity_adapter()
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, samples_used=1)
        checks = high_low_rows(adapter, f, report, n_max=1)
        assert [(c.family, c.index) for c in checks] == [
            ("high_low", (("n", 0),)), ("high_low", (("n", 0),)),
            ("high_low", (("n", 1),)), ("high_low", (("n", 1),)),
        ]
        # gamma_n = 2^-n sum_{k<=n} 4^k |f_k|: gamma_0 = 1, gamma_1 = 3/2, gamma_2 = 7/4
        pairs = [(c.lhs, c.rhs) for c in checks]
        # high: ||S_n f||_{2,inf} <= 2^n gamma_n; low: |f_{n+1}| <= 2^-n gamma_{n+1}
        assert pairs == [(1.0, 1.0), (0.5, 1.5), (2.0, 3.0), (0.25, 0.875)]

    def test_bounds_hold_for_identity(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        pairs = [(truncate(f, n + 1), truncate(f, n)) for n in range(f.support - 1)]
        report = estimate_constants(adapter, pairs).inflated(1.1)
        checks = high_low_rows(adapter, f, report, n_max=f.support - 1)
        assert len(checks) == 2 * f.support
        for check in checks:
            assert check.lhs <= check.rhs * (1 + 1e-9)


class TestBlockDecayProfile:
    def test_zero_map_rows_trivial(self, rng):
        adapter = zero_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = HypothesisReport(
            0.0, 0.0, adapter.s0, adapter.s, adapter.s1, samples_used=1
        )
        checks = block_decay_profile(adapter, f, report, n_max=f.support - 1)
        assert all(check.lhs == 0.0 for check in checks)

    def test_identity_increment_is_single_block(self):
        f = scalar_seq(1.0, 0.5, 0.25, 0.125)
        adapter = identity_adapter()
        report = HypothesisReport(
            1.0, 1.0, 0.0, 1.0, 2.0, samples_used=1
        )
        checks = block_decay_profile(adapter, f, report, n_max=2)
        for check in checks:
            assert check.family == "block_decay"
            index = dict(check.index)
            n, m = index["n"], index["m"]
            if m == n + 1:
                expected = 2.0 ** (m * adapter.s) * abs(f.blocks[m])
                assert check.lhs == pytest.approx(expected, rel=1e-12)
            else:
                assert check.lhs == 0.0

    def test_kappa_value_for_standard_scale(self):
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, 1)
        assert report.kappa == 1.0

    def test_rows_bounded_for_identity(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        pairs = [(truncate(f, n + 1), truncate(f, n)) for n in range(f.support - 1)]
        report = estimate_constants(adapter, pairs).inflated(1.1)
        checks = block_decay_profile(adapter, f, report, n_max=f.support - 1)
        assert checks
        for check in checks:
            assert check.lhs <= check.rhs * (1 + 1e-9)


class TestConvergenceBound:
    def test_exact_zero_beyond_support(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = estimate_constants(adapter, [(f, truncate(f, 0))])
        [check] = convergence_report(adapter, f, report, [f.support])
        assert check.index == (("n", f.support),)
        assert check.lhs == 0.0
        assert check.rhs > 0.0

    def test_A_constant_for_unit_kappa(self):
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, 1)
        assert report.A == pytest.approx(4.0, rel=1e-15)
        assert HypothesisReport(1.0, 1.0, 0.0, 2.5, 3.0, 1).A == pytest.approx(
            2.0 / (1.0 - 2.0**-0.5), rel=1e-15
        )

    def test_rows_bounded_for_identity(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        pairs = [(truncate(f, n + 1), truncate(f, n)) for n in range(f.support - 1)]
        report = estimate_constants(adapter, pairs).inflated(1.1)
        conv = convergence_report(adapter, f, report, range(f.support + 1))
        for check in conv:
            assert check.lhs <= check.rhs * (1 + 1e-9)
        assert conv[-1].lhs == 0.0

    def test_report_serialization(self):
        report = HypothesisReport(1.0, 2.0, 0.0, 1.0, 2.0, 3)
        payload = report.to_dict()
        assert payload["estimated"] is True
        assert payload["C"] == pytest.approx(6.0)


class TestContinuityProbe:
    def test_zero_scale_gives_zero_distance(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = continuity_probe(adapter, f, [0.0])
        assert all(row.output_distance == 0.0 for row in report.rows)

    def test_identity_preserves_distances(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = continuity_probe(adapter, f, [1e-1, 1e-2, 1e-3])
        for row in report.rows:
            assert row.output_distance == pytest.approx(row.input_distance, rel=1e-12)
        assert report.trend_ok

    def test_perturbation_must_stay_in_ball(self, rng):
        f = scalar_seq(1.0)
        adapter = identity_adapter(radius=1.01)
        with pytest.raises(BallViolationError):
            continuity_probe(adapter, f, [1.0])


class TestInterpolationInAction:
    def test_intermediate_norm_bounded_by_extremes(self, rng):
        # the fixed-n continuity step: a difference bounded at the outer
        # orders is bounded at the intermediate order by the split estimate
        adapter = identity_adapter()
        f, g = small_sequences(rng, 2, adapter.radius, adapter.s, adapter.q)
        for n in range(4):
            diff = adapter(truncate(f, n)) - adapter(truncate(g, n))
            best = min(
                (lambda p: p.low + p.high)(
                    interpolation_bound(
                        diff, adapter.s0, adapter.s, adapter.s1, adapter.q, m
                    )
                )
                for m in range(diff.support + 4)
            )
            assert dyadic_norm(diff, (adapter.s, adapter.q)) <= best * (1 + 1e-9)
