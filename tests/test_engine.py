import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovflow.dyadic import (
    SLACK,
    Check,
    DyadicSequence,
    dyadic_norm,
    fails,
    interpolation_bound,
    random_sequence,
    truncate,
)
from besovflow.engine import (
    BallViolationError,
    FlowMapAdapter,
    HypothesisReport,
    MapVerification,
    block_decay_profile,
    continuity_probe,
    convergence_report,
    estimate_constants,
    high_low_rows,
    perturbations,
    verify_map,
)
from besovflow.littlewood_paley import build_filters, decompose, random_grid_function
from besovflow.pseudonorm import PseudoNormedSpace

INF = math.inf
WIDTH = 8  # blocks of every image; inputs have at most this many
GRID = 4

# grid blocks under the max norm: block k = (v_k, 0, 0, 0) has norm |v_k| exactly
SUP = PseudoNormedSpace("sup(4)", lambda blocks: np.abs(blocks).max(axis=-1), "grid_function")


def seq(*values):
    """The grid sequence whose block k is (v_k, 0, 0, 0), of block norm |v_k|."""
    blocks = np.zeros((len(values), GRID))
    blocks[:, 0] = values
    return DyadicSequence(SUP, blocks)


def padded(f):
    """The block norms of f as an image row of WIDTH blocks."""
    image = np.zeros(WIDTH)
    image[: f.support] = f.block_norms
    return image


def norm(f, idx):
    return dyadic_norm(f.block_norms[None], idx)[0]


def identity_adapter(radius=100.0, scale=(0.0, 1.0, 2.0), q=2.0):
    """The map taking a sequence to its own block norms."""
    s0, s, s1 = scale
    return FlowMapAdapter(
        phi=lambda fs: [padded(f) for f in fs], radius=radius, s0=s0, s=s, s1=s1, q=q
    )


def zero_adapter(radius=100.0, scale=(0.0, 1.0, 2.0), q=2.0):
    s0, s, s1 = scale
    return FlowMapAdapter(
        phi=lambda fs: [np.zeros(WIDTH) for _ in fs], radius=radius, s0=s0, s=s, s1=s1, q=q
    )


def small_sequences(rng, count, radius, s, q):
    out = []
    while len(out) < count:
        f = seq(*random_sequence(rng, 1, max_support=WIDTH, log2_range=(-4.0, 2.0))[0])
        if norm(f, (s, q)) < 0.5 * radius:
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
            adapter([seq(5.0)])

    def test_request_gives_one_image_row_per_sequence(self):
        f = seq(1.0, 0.5)
        images = identity_adapter()([f, truncate(f, 0), f])
        assert images.shape == (3, WIDTH)
        assert images[:, :2].tolist() == [[1.0, 0.5], [1.0, 0.0], [1.0, 0.5]]
        assert not images[:, 2:].any()

    def test_memoization_maps_equal_data_once(self):
        calls = []

        def phi(fs):
            calls.append(len(fs))
            return [padded(f) for f in fs]

        adapter = FlowMapAdapter(phi=phi, radius=10.0, s0=0, s=1, s1=2, q=2.0)
        f = seq(1.0, 0.5)
        adapter([f])
        again = adapter([DyadicSequence(f.base, f.blocks.copy())])
        assert len(calls) == 1
        assert np.array_equal(again[0], padded(f))

    def test_request_maps_each_distinct_block_data_once(self):
        mapped = []

        def phi(fs):
            mapped.append(len(fs))
            return [padded(f) for f in fs]

        adapter = FlowMapAdapter(phi=phi, radius=10.0, s0=0, s=1, s1=2, q=2.0)
        f = seq(1.0, 0.5)
        twin = seq(1.0, 0.5)  # equal data, other block objects
        images = adapter([f, twin, truncate(f, 0), f, truncate(f, 0)])
        assert mapped == [2]
        assert np.array_equal(images[[0, 1, 3]], np.broadcast_to(padded(f), (3, WIDTH)))
        assert np.array_equal(images[2], images[4]) and images[2, :2].tolist() == [1.0, 0.0]
        assert np.array_equal(adapter([truncate(twin, 0)])[0], images[2])
        assert mapped == [2]

    def test_ball_checked_once_per_mapped_sequence(self, monkeypatch):
        checked = []
        check_ball = FlowMapAdapter.check_ball

        def counted(self, f):
            checked.append(f.key)
            return check_ball(self, f)

        monkeypatch.setattr(FlowMapAdapter, "check_ball", counted)
        adapter = identity_adapter(radius=10.0)
        f = seq(1.0, 0.5)
        twin = seq(1.0, 0.5)  # equal data, other block objects
        adapter([f, twin, truncate(f, 0), f])
        assert checked == [f.key, truncate(f, 0).key]
        adapter([truncate(twin, 0), seq(0.25), f])  # two memoized, one new
        assert checked == [f.key, truncate(f, 0).key, seq(0.25).key]
        convergence_report(adapter, f, HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, 1))
        continuity_probe(adapter, f, perturbations(adapter, f, [1e-1, 1e-2], [f]))
        # f and its truncations were mapped already: only the perturbations are new
        assert len(checked) == 3 + 2 and len(set(checked)) == len(checked)

    def test_memoizing_is_not_an_option(self):
        with pytest.raises(TypeError):
            FlowMapAdapter(phi=lambda fs: fs, radius=10.0, s0=0, s=1, s1=2, q=2.0, memoize=False)
        adapter = identity_adapter(radius=10.0)
        assert adapter.memoize is True
        with pytest.raises(AttributeError):
            adapter.memoize = False


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
            estimate_constants(adapter, [(seq(9.0), seq(0.1))])

    def test_ball_checked_once_per_distinct_sequence(self, rng):
        adapter = identity_adapter()
        checked = []
        check_ball = adapter.check_ball

        def counted(f):
            checked.append(f.key)
            return check_ball(f)

        adapter.check_ball = counted
        samples = small_sequences(rng, 4, adapter.radius, adapter.s, adapter.q)
        # the zero member enters no ratio, so no request maps it
        pairs = [(samples[i], samples[j]) for i in range(4) for j in range(i)]
        pairs += [(samples[0], seq(0.0, 0.0)), (samples[1], samples[0])]
        estimate_constants(adapter, pairs)
        assert len(checked) == len(set(checked))
        members = {f.key for pair in pairs for f in pair}
        family = {truncate(f, n).key for pair in pairs for f in pair for n in range(f.support)}
        assert members <= set(checked) <= family

    def test_unmapped_member_outside_ball_rejected(self):
        # both members have s0 and s1 norms below the zero denominator, so
        # no ratio maps them, and the ball is still checked
        adapter = identity_adapter(radius=1e-16)
        with pytest.raises(BallViolationError):
            estimate_constants(adapter, [(seq(1e-15), seq(0.0))])

    def test_estimates_stabilize_with_more_samples(self, rng):
        # diagonal map with bounded blockwise gains: a genuine non-identity
        gains = [1.0, 0.7, 1.3, 0.5, 1.1, 0.9, 1.2, 0.8]

        def phi(fs):
            return [padded(f) * gains for f in fs]

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
        assert not Check("f", (), INF, INF).failed
        assert Check("f", (), math.nan, 1.0).failed and Check("f", (), 1.0, math.nan).failed

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_columns_fail_entry_by_entry_as_rows(self, data):
        # every float, plus signed zeros, infinities, NaN, subnormals and the
        # neighbours of the slack edge rhs (1 + SLACK)
        edges = [0.0, -0.0, INF, -INF, math.nan, 5e-324, -5e-324, 2.0**-1040]
        values = st.floats() | st.sampled_from(edges)
        rows = []
        for rhs in data.draw(st.lists(values, min_size=1, max_size=8)):
            edge = rhs * (1.0 + SLACK)
            near = [edge, math.nextafter(edge, -INF), math.nextafter(edge, INF)]
            rows.append((data.draw(values | st.sampled_from(near)), rhs))
        lhs, rhs = np.array(rows).T
        failed = [Check("f", (), *row).failed for row in rows]
        assert all(type(f) is bool for f in failed)
        with np.errstate(over="ignore"):  # rhs (1 + SLACK) may round up to inf, as for floats
            assert fails(lhs, rhs).tolist() == failed

    def test_frozen_and_slotted(self):
        check = Check("f", (("n", 1),), 1.0, 2.0)
        assert not hasattr(check, "__dict__")
        with pytest.raises(AttributeError):
            check.lhs = 3.0


class TestHighLowRows:
    def test_two_checks_per_level_high_first(self):
        f = seq(1.0, 0.5, 0.25)
        adapter = identity_adapter()
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, samples_used=1)
        checks = high_low_rows(adapter, f, report)
        assert [(c.family, c.index) for c in checks] == [
            (family, (("n", n),)) for n in range(3) for family in ("high", "low")
        ]
        # gamma_n = 2^-n sum_{k<=n} 4^k |f_k|: gamma_0 = 1, gamma_1 = 3/2,
        # gamma_2 = 7/4, gamma_3 = 7/8
        pairs = [(c.lhs, c.rhs) for c in checks]
        # high: ||S_n f||_{2,inf} <= 2^n gamma_n; low: |f_{n+1}| <= 2^-n gamma_{n+1},
        # with f_3 = 0 at the last level
        assert pairs == [
            (1.0, 1.0), (0.5, 1.5), (2.0, 3.0), (0.25, 0.875), (4.0, 7.0), (0.0, 0.21875)
        ]


class TestBlockDecayProfile:
    def test_zero_map_rows_trivial(self, rng):
        adapter = zero_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = HypothesisReport(
            0.0, 0.0, adapter.s0, adapter.s, adapter.s1, samples_used=1
        )
        checks = block_decay_profile(adapter, f, report)
        assert all(check.lhs == 0.0 for check in checks)

    def test_identity_increment_is_single_block(self):
        values = [1.0, 0.5, 0.25, 0.125]
        f = seq(*values)
        adapter = identity_adapter()
        report = HypothesisReport(
            1.0, 1.0, 0.0, 1.0, 2.0, samples_used=1
        )
        checks = block_decay_profile(adapter, f, report)
        assert len(checks) == len(values) * WIDTH
        for check in checks:
            assert check.family == "block_decay"
            index = dict(check.index)
            n, m = index["n"], index["m"]
            if m == n + 1 < len(values):
                expected = 2.0 ** (m * adapter.s) * values[m]
                assert check.lhs == pytest.approx(expected, rel=1e-12)
            else:
                assert check.lhs == 0.0

    def test_kappa_value_for_standard_scale(self):
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, 1)
        assert report.kappa == 1.0


class TestConvergenceBound:
    def test_one_row_per_level_and_exact_zero_at_the_last(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = estimate_constants(adapter, [(f, truncate(f, 0))])
        conv = convergence_report(adapter, f, report)
        assert [c.index for c in conv] == [(("n", n),) for n in range(f.support)]
        assert conv[-1].lhs == 0.0  # S_K f is f
        assert conv[-1].rhs > 0.0

    def test_A_constant_for_unit_kappa(self):
        report = HypothesisReport(1.0, 1.0, 0.0, 1.0, 2.0, 1)
        assert report.A == pytest.approx(4.0, rel=1e-15)
        assert HypothesisReport(1.0, 1.0, 0.0, 2.5, 3.0, 1).A == pytest.approx(
            2.0 / (1.0 - 2.0**-0.5), rel=1e-15
        )

    def test_report_serialization(self):
        report = HypothesisReport(1.0, 2.0, 0.0, 1.0, 2.0, 3)
        payload = report.to_dict()
        assert payload["estimated"] is True
        assert payload["C"] == pytest.approx(6.0)


class TestContinuityProbe:
    def test_zero_scale_gives_zero_distance(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        report = continuity_probe(adapter, f, perturbations(adapter, f, [0.0], [f]))
        assert all(row.output_distance == 0.0 for row in report.rows)

    def test_identity_preserves_distances(self, rng):
        adapter = identity_adapter()
        f = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        g = small_sequences(rng, 1, adapter.radius, adapter.s, adapter.q)[0]
        probes = perturbations(adapter, f, [1e-1, 1e-2, 1e-3], [f, g * 3.0])
        report = continuity_probe(adapter, f, probes)
        assert [row.direction for row in report.rows] == [0, 1] * 3
        for row in report.rows:  # each direction is normalized in the (s, q) norm
            assert row.input_distance == pytest.approx(row.scale, rel=1e-12)
            assert row.output_distance == pytest.approx(row.input_distance, rel=1e-12)
        assert report.trend_ok

    def test_perturbation_must_stay_in_ball(self, rng):
        f = seq(1.0)
        adapter = identity_adapter(radius=1.01)
        with pytest.raises(BallViolationError):
            continuity_probe(adapter, f, perturbations(adapter, f, [1.0], [f]))

    def test_zero_direction_rejected(self):
        f = seq(1.0, 0.5)
        with pytest.raises(ValueError, match="nonzero"):
            perturbations(identity_adapter(), f, [1e-1], [f - seq(1.0, 0.5)])


class TestVerifyMap:
    def test_identity_passes_every_check(self, rng):
        f = small_sequences(rng, 1, 100.0, 1.0, 2.0)[0]
        verified = verify_map(identity_adapter().phi, [f], (0.0, 1.0, 2.0, 2.0))
        assert len(verified.rows("high")) == f.support and verified.rows("block_decay")
        assert not any(check.failed for check in verified.checks)
        assert verified.rows("convergence")[-1].lhs == 0.0  # S_K f is f
        assert verified.continuity.trend_ok

    @pytest.mark.parametrize("members", [1, 3])
    def test_same_requests_and_rows_as_the_five_direct_calls(self, rng, monkeypatch, members):
        family = [f for f in small_sequences(rng, 12, 100.0, 1.0, 2.0) if f.support >= 3]
        family = family[:members]
        gains = np.linspace(0.6, 1.4, WIDTH)  # a diagonal map that is not the identity
        phi = lambda fs: [padded(f) * gains for f in fs]  # noqa: E731

        def recording(requests):
            class Recording(FlowMapAdapter):
                def __call__(self, request):
                    requests.append([f.key for f in request])
                    return super().__call__(request)

            return Recording

        via, direct = [], []
        monkeypatch.setattr("besovflow.engine.FlowMapAdapter", recording(via))
        verified = verify_map(phi, family, (0, 1, 2, 2.0))
        largest = max(norm(f, (1, 2.0)) for f in family)
        assert verified.radius == max(2.0 * largest, largest + 0.2)
        adapter = recording(direct)(phi=phi, radius=verified.radius, s0=0, s=1, s1=2, q=2.0)
        probe = family[0]
        # toward member 1, or along the probe for a family of one; the
        # truncations and the probes ride with the constants' request
        direction = family[1] - probe if members > 1 else probe
        probes = perturbations(adapter, probe, [1e-1, 1e-2, 1e-3], [direction])
        levels = [truncate(probe, n) for n in range(probe.support)]
        pairs = [(family[i], family[j]) for i in range(members) for j in range(i)]
        pairs += list(zip(levels[1:], levels[:-1]))
        raw = estimate_constants(adapter, pairs, levels + [perturbed for _, _, perturbed in probes])
        checked = raw.inflated(1.1)
        checks = [
            *high_low_rows(adapter, probe, checked),
            *block_decay_profile(adapter, probe, checked),
            *convergence_report(adapter, probe, checked),
        ]
        continuity = continuity_probe(adapter, probe, probes)
        assert via == direct
        assert verified == MapVerification(raw, checked, tuple(checks), continuity, verified.radius)

    @pytest.mark.parametrize("members", [1, 3])
    def test_one_phi_call_maps_what_the_five_steps_map_one_by_one(self, rng, members):
        family = [f for f in small_sequences(rng, 12, 100.0, 1.0, 2.0) if f.support >= 3]
        family = family[:members]
        gains = np.linspace(0.6, 1.4, WIDTH)
        calls = []

        def phi(fs):
            calls.append([f.key for f in fs])
            return [padded(f) * gains for f in fs]

        verified = verify_map(phi, family, (0, 1, 2, 2.0))
        assert len(calls) == 1 and len(set(calls[0])) == len(calls[0])
        (joint,) = calls
        # the same steps, each mapping its own request, the probes last
        calls.clear()
        adapter = FlowMapAdapter(phi=phi, radius=verified.radius, s0=0, s=1, s1=2, q=2.0)
        probe = family[0]
        pairs = [(family[i], family[j]) for i in range(members) for j in range(i)]
        pairs += [(truncate(probe, n + 1), truncate(probe, n)) for n in range(probe.last_index)]
        checked = estimate_constants(adapter, pairs).inflated(1.1)
        high_low_rows(adapter, probe, checked)
        block_decay_profile(adapter, probe, checked)
        convergence_report(adapter, probe, checked)
        direction = family[1] - probe if members > 1 else probe
        probes = perturbations(adapter, probe, [1e-1, 1e-2, 1e-3], [direction])
        continuity_probe(adapter, probe, probes)
        assert len(calls) == 2
        assert set(joint) == {key for call in calls for key in call}

    def test_a_truncation_in_no_ratio_shares_the_one_call(self):
        # S_0 f and S_1 f vanish: no pair difference or s1 norm of theirs
        # enters a constant, yet the rows read their images
        calls = []

        def phi(fs):
            calls.append(len(fs))
            return [padded(f) for f in fs]

        verified = verify_map(phi, [seq(0.0, 0.0, 1.0, 0.5)], (0.0, 1.0, 2.0, 2.0))
        assert len(calls) == 1
        assert [c.lhs for c in verified.rows("high")][:2] == [0.0, 0.0]

    @pytest.mark.parametrize("largest, radius", [(1.0, 2.0), (0.05, 0.25)])
    def test_radius_is_the_larger_of_the_two_rules(self, rng, largest, radius):
        # max(2 M, M + 2 * 0.1): twice the largest norm, or two probe steps past it
        f = small_sequences(rng, 1, 100.0, 1.0, 2.0)[0]
        f = f * (largest / norm(f, (1.0, 2.0)))
        verified = verify_map(identity_adapter().phi, [f], (0.0, 1.0, 2.0, 2.0))
        assert verified.radius == pytest.approx(radius, rel=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(exponents=st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=3))
    def test_default_ball_holds_every_mapped_input(self, exponents):
        # members of (2, 2) norm 1e-6 to 1e2 at N = 64: every truncation and
        # probe f + eps g the protocol maps lies inside the derived ball
        bank, rng = build_filters(64), np.random.default_rng(64)
        family = [decompose(random_grid_function(rng, 64, max_mode=12), bank) for _ in exponents]
        family = [f * (10.0**e / norm(f, (2.0, 2.0))) for f, e in zip(family, exponents)]
        verify_map(identity_adapter().phi, family, (0.0, 2.0, 3.0, 2.0))  # no BallViolationError


class TestInterpolationInAction:
    def test_intermediate_norm_bounded_by_extremes(self, rng):
        # the fixed-n continuity step: a difference bounded at the outer
        # orders is bounded at the intermediate order by the split estimate
        adapter = identity_adapter()
        f, g = small_sequences(rng, 2, adapter.radius, adapter.s, adapter.q)
        for n in range(4):
            image_f, image_g = adapter([truncate(f, n), truncate(g, n)])
            diff = np.abs(image_f - image_g)[None]
            parts = interpolation_bound(
                diff, adapter.s0, adapter.s, adapter.s1, adapter.q, np.arange(WIDTH + 4)
            )
            best = (parts.low + parts.high).min()
            assert dyadic_norm(diff, (adapter.s, adapter.q))[0] <= best * (1 + 1e-9)
