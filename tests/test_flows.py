import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovflow.dyadic import dyadic_norm
from besovflow.engine import FlowMapAdapter, estimate_constants, verify_map
from besovflow.littlewood_paley import (
    GridFunction,
    GridMismatchError,
    build_filters,
    decompose,
    load_grid_function,
    random_grid_function,
    reconstruct,
    sobolev_norm,
)
from besovflow.flows import (
    CharacteristicSolveError,
    FlowConfig,
    ShockMarginError,
    Trajectory,
    TrigInterpolant,
    _OVERSAMPLE,
    block_time_norms,
    burgers_flow,
    burgers_spectral_reference,
    chemin_lerner_norm,
    flow_as_sequence_map,
    make_flow,
    save_trajectory,
    shock_time,
    sinusoid_datum,
    sup_time_sobolev_norm,
    time_continuity_modulus,
    transport_flow,
)

SCALE = (0.0, 2.0, 3.0, 2.0)  # (s0, s, s1, q)


def norm(f, idx):
    """The (s, q) dyadic norm of one grid sequence."""
    return dyadic_norm(f.block_norms[None], idx)[0]


def transport_cfg(speed=1.0, **overrides):
    base = dict(grid_size=64, T=1.0, time_steps=64, flow_kind="transport", transport_speed=speed)
    base.update(overrides)
    return FlowConfig(**base)


def burgers_cfg(**overrides):
    base = dict(grid_size=64, T=0.5, time_steps=64, flow_kind="burgers")
    base.update(overrides)
    return FlowConfig(**base)


class TestFlowConfig:
    @pytest.mark.parametrize("time_steps", [True, 2.7, "64"])
    def test_time_steps_must_be_a_positive_int(self, time_steps):
        with pytest.raises(ValueError, match="time_steps must be a positive integer"):
            transport_cfg(time_steps=time_steps)


class TestTransportFlow:
    def test_zero_datum(self):
        (traj,) = transport_flow([GridFunction.zeros(64)], transport_cfg())
        assert all(np.abs(s.values).max() == 0.0 for s in traj.states)

    def test_zero_speed_is_constant(self, rng):
        u0 = random_grid_function(rng, 64)
        (traj,) = transport_flow([u0], transport_cfg(0.0))
        for state in traj.states:
            assert np.abs(state.values - u0.values).max() <= 1e-13

    def test_exact_phase_shift(self):
        u0 = GridFunction.from_function(np.cos, 64)
        cfg = transport_cfg(T=math.pi / 2.0, time_steps=64)
        (traj,) = transport_flow([u0], cfg)
        x = u0.nodes
        expected = np.cos(x - math.pi / 2.0)
        assert np.abs(traj.states[-1].values - expected).max() <= 1e-12

    def test_sobolev_conservation(self, rng):
        u0 = random_grid_function(rng, 64)
        (traj,) = transport_flow([u0], transport_cfg(1.7))
        for s in (-1.0, 0.0, 2.0):
            reference = sobolev_norm(u0, s)
            for state in traj.states:
                assert sobolev_norm(state, s) == pytest.approx(
                    reference, rel=1e-12
                )


class TestBurgersFlow:
    def test_zero_datum(self):
        (traj,) = burgers_flow([GridFunction.zeros(64)], burgers_cfg())
        assert all(np.abs(s.values).max() == 0.0 for s in traj.states)

    def test_constant_datum_is_steady(self):
        u0 = GridFunction(np.full(64, 0.3))
        (traj,) = burgers_flow([u0], burgers_cfg())
        for state in traj.states:
            assert np.abs(state.values - 0.3).max() <= 1e-12

    def test_shock_time_of_sine(self):
        u0 = sinusoid_datum(256, 0.1)
        assert shock_time(u0)[0] == pytest.approx(10.0, rel=1e-9)

    def test_shock_time_sees_slopes_between_nodes(self):
        # u0' = -cos(x - pi/8) is steepest at x = pi/8, halfway between the
        # nodes of the 8-point grid, where it reaches only -cos(pi/8) ~ -0.924
        u0 = GridFunction.from_function(lambda x: -np.sin(x - math.pi / 8.0), 8)
        assert shock_time(u0)[0] == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(ShockMarginError):
            burgers_flow([u0], burgers_cfg(grid_size=8, T=0.95))

    def test_torus_peak_of_nyquist_mode(self):
        # the Nyquist mode of the interpolant is cos(N x / 2), of height 1
        assert torus_peak(GridFunction((-1.0) ** np.arange(16))) == 1.0

    def test_shock_margin_enforced(self):
        u0 = sinusoid_datum(64, 1.0)  # shock time 1.0
        with pytest.raises(ShockMarginError):
            burgers_flow([u0], burgers_cfg(T=0.95))
        burgers_flow([u0], burgers_cfg(T=0.85))  # inside the margin

    def test_shock_margin_allows_the_rounding_of_t_star(self):
        # alpha sin x + beta sin 2x scaled to T/T* = 0.9 at T = 0.5 from the
        # unit datum's T*: the peak fit of the scaled datum rounds differently,
        # and without the relative allowance of 1e-12 on the margin 64 of
        # these 122 data read up to 3.5e-14 above it
        for n in (64, 256):
            cfg = burgers_cfg(grid_size=n, time_steps=1)
            for beta_ratio in np.linspace(-1.0, 1.0, 61):
                unit_time = shock_time(sinusoid_datum(n, 1.0, beta_ratio))[0]
                for fraction in (0.9, 0.9 * (1.0 + 1e-9)):
                    alpha = fraction * unit_time / cfg.T
                    data = [sinusoid_datum(n, alpha, alpha * beta_ratio)]
                    if fraction == 0.9:
                        burgers_flow(data, cfg)
                        continue
                    with pytest.raises(ShockMarginError, match=r"relative allowance 1e-12\)"):
                        burgers_flow(data, cfg)

    def test_matches_pseudospectral_reference(self):
        u0 = sinusoid_datum(256, 0.1)
        cfg = burgers_cfg(grid_size=256, T=0.5)
        (traj,) = burgers_flow([u0], cfg)
        reference = burgers_spectral_reference(u0, traj.times, steps_per_interval=32)
        worst = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(traj.states, reference.states)
        )
        assert worst <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([64, 256]),
        beta_ratio=st.floats(-1.0, 1.0),
        fraction=st.floats(0.5, 0.9),
    )
    def test_property_horizons_up_to_the_shock_margin(self, n, beta_ratio, fraction):
        # alpha sin x + beta sin 2x with beta = beta_ratio alpha, scaled so that
        # T/T* = fraction at T = 0.5 (T* scales as 1/alpha).  T is then set from
        # the scaled datum's own T*, so that T/T* is the fraction the margin
        # check computes, and T is 0.5 up to rounding
        unit_time = shock_time(sinusoid_datum(n, 1.0, beta_ratio))[0]

        def scaled(fraction):
            alpha = fraction * unit_time / 0.5
            u0 = sinusoid_datum(n, alpha, alpha * beta_ratio)
            cfg = burgers_cfg(grid_size=n, T=fraction * shock_time(u0)[0], time_steps=64)
            assert cfg.T == pytest.approx(0.5, rel=1e-12)
            return u0, cfg

        u0, cfg = scaled(fraction)
        (traj,) = burgers_flow([u0], cfg)  # a CharacteristicSolveError fails here
        assert np.all(np.isfinite(traj.samples))
        u0, cfg = scaled(0.9001)
        with pytest.raises(ShockMarginError):
            burgers_flow([u0], cfg)

    def test_maximum_principle(self, rng):
        u0 = sinusoid_datum(64, 0.11, 0.04)
        cfg = burgers_cfg(T=0.5)
        (traj,) = burgers_flow([u0], cfg)
        cap = torus_peak(u0)
        for state in traj.states:
            assert np.abs(state.values).max() <= cap + 1e-12

    def test_mean_conservation(self):
        u0 = sinusoid_datum(128, 0.1, 0.05)
        cfg = burgers_cfg(grid_size=128, T=0.5)
        (traj,) = burgers_flow([u0], cfg)
        mean0 = float(np.mean(u0.values))
        for state in traj.states:
            assert float(np.mean(state.values)) == pytest.approx(
                mean0, abs=1e-10
            )

    def test_interpolant_exact_at_nodes(self, rng):
        u0 = random_grid_function(rng, 64)
        interp = TrigInterpolant([u0])
        assert np.abs(interp(u0.nodes[None]) - u0.values).max() <= 1e-12
        value, deriv = interp.value_and_derivative(np.linspace(0, 6.0, 50)[None])
        assert np.allclose(value, interp(np.linspace(0, 6.0, 50)[None]))


def torus_peak(u):
    """max |u| over the torus, as shock_time reports it beside the shock time."""
    return shock_time(u)[1]


def phase_slip_datum(n):
    """+-1 node values whose alternation slips by one node at N/2.

    The interpolant peaks between the nodes near the slip, at 2.29, 3.17
    and 4.05 times the node maximum for N = 16, 64 and 256.
    """
    j = np.arange(n)
    return GridFunction(np.where(j < n // 2, (-1.0) ** j, (-1.0) ** (j + 1)))


class TestBracketFromTorusMax:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("ratio", [0.85, 0.89])
    def test_phase_slip_data_converge(self, n, ratio):
        # a bracket from the node maximum misses the roots of the feet whose
        # values come from between the nodes, and the solve stalled
        u0 = phase_slip_datum(n)
        assert torus_peak(u0) > 2.0 * np.abs(u0.values).max()
        (traj,) = burgers_flow([u0], burgers_cfg(grid_size=n, T=ratio * shock_time(u0)[0]))
        assert np.all(np.isfinite(traj.samples))

    def test_shock_time_returns_the_torus_peak(self):
        u0 = phase_slip_datum(64)
        time, peak = shock_time(u0)
        assert time == shock_time(u0)[0]
        dense = TrigInterpolant([u0])(np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)[None])
        assert peak == pytest.approx(np.abs(dense).max(), rel=1e-9)


def near_shock_mix(n):
    """Easy data mixed with near-shock data, under one horizon.

    In a single time step to 0.89 T*, the two near-shock data take the
    bisection fallback at some nodes and need twice the Newton steps of
    the easy data, which settle first.
    """
    data = [
        sinusoid_datum(n, 0.1, 0.05),
        sinusoid_datum(n, 1.0, 0.3),
        sinusoid_datum(n, -0.02, 0.01),
        sinusoid_datum(n, 0.97, 0.29),
        sinusoid_datum(n, 0.3, -0.1),
    ]
    horizon = 0.89 * min(shock_time(u)[0] for u in data)
    return data, burgers_cfg(grid_size=n, T=horizon, time_steps=1)


class TestBatchedSolve:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_batch_equals_solo_solves(self, n):
        data, cfg = near_shock_mix(n)
        batch = burgers_flow(data, cfg)
        assert len(batch) == len(data)
        for traj, u0 in zip(batch, data):
            assert np.array_equal(traj.samples, burgers_flow([u0], cfg)[0].samples)

    def test_transport_batch_equals_solo(self, rng):
        data = [random_grid_function(rng, 64) for _ in range(5)]
        cfg = transport_cfg(1.3, time_steps=8)
        for traj, u0 in zip(transport_flow(data, cfg), data):
            assert np.array_equal(traj.samples, transport_flow([u0], cfg)[0].samples)

    def test_mixed_grid_sizes_rejected(self):
        with pytest.raises(GridMismatchError):
            burgers_flow([sinusoid_datum(32, 0.1), sinusoid_datum(64, 0.1)], burgers_cfg())

    def test_sequence_map_groups_equal_solo_images(self, bank256):
        # N = 256 groups 8 data per sweep; 11 data leave a partial group
        data = [sinusoid_datum(256, 0.02 * (k + 1), 0.01 * (k - 5)) for k in range(11)]
        family = [decompose(u, bank256) for u in data]
        cfg = burgers_cfg(grid_size=256, T=0.4, time_steps=16)
        batched = np.array(flow_as_sequence_map(cfg, bank256)(family))
        assert batched.shape == (11, bank256.j_max + 1)
        for f, image in zip(family, batched):
            (solo,) = flow_as_sequence_map(cfg, bank256)([f])
            assert np.array_equal(image, solo)

    def test_stall_names_the_datum(self, monkeypatch):
        # datum 1 of the stack gets noise far above the residual gate
        noise = np.random.default_rng(5)
        taylor = TrigInterpolant._taylor

        def noisy(self, y, derivative_too, gathered=None):
            value, deriv = taylor(self, y, derivative_too, gathered)
            if self.offsets is not None:
                stuck = (self.offsets == self.nodes_per_datum)[:, None]
                value = value + 1e-6 * stuck * noise.standard_normal(value.shape)
            return value, deriv

        monkeypatch.setattr(TrigInterpolant, "_taylor", noisy)
        data = [sinusoid_datum(32, 0.1), sinusoid_datum(32, 0.2), sinusoid_datum(32, 0.05)]
        with pytest.raises(CharacteristicSolveError, match=r"datum 1, node \d+, time"):
            burgers_flow(data, burgers_cfg(grid_size=32, time_steps=4))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        exponent=st.integers(3, 10),
        ratio=st.floats(0.5, 0.9),
        modes=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=4
        ),
    )
    def test_property_converges_and_batch_equals_solo(self, exponent, ratio, modes):
        n = 2**exponent
        x = GridFunction.zeros(n).nodes
        data = []
        for shift in range(3):
            values = sum(
                a * np.cos((k + 1) * x + shift) + b * np.sin((k + 1) * x)
                for k, (a, b) in enumerate(modes[: n // 2 - 1])
            )
            data.append(GridFunction(values + 0.1 * np.sin(x)))
        cfg = burgers_cfg(
            grid_size=n, T=ratio * min(shock_time(u)[0] for u in data), time_steps=8
        )
        batch = burgers_flow(data, cfg)
        for traj, u0 in zip(batch, data):
            assert np.array_equal(traj.samples, burgers_flow([u0], cfg)[0].samples)


def dense_interpolant(u, y):
    """Value and derivative of the interpolant by a direct sum over every
    mode, in extended precision so the reference error stays far below the
    test tolerance even at |k y| ~ 1e4."""
    n = u.grid_size
    coeffs = np.fft.fft(u.values) / n
    k = np.arange(1, n // 2, dtype=np.longdouble)
    phase = np.outer(y.astype(np.longdouble), k)
    re = coeffs[1 : n // 2].real.astype(np.longdouble)
    im = coeffs[1 : n // 2].imag.astype(np.longdouble)
    cos, sin = np.cos(phase), np.sin(phase)
    half = np.longdouble(n // 2) * y.astype(np.longdouble)
    nyquist = np.longdouble(coeffs[n // 2].real)
    value = coeffs[0].real + 2 * (cos @ re - sin @ im) + nyquist * np.cos(half)
    deriv = -2 * (sin @ (k * re) + cos @ (k * im)) - nyquist * (n // 2) * np.sin(half)
    return value.astype(float), deriv.astype(float), float(np.abs(coeffs).sum())


class TestTrigInterpolant:
    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_blocked_kernel_matches_dense_sum(self, n):
        rng = np.random.default_rng(n)
        u = random_grid_function(rng, n)
        y = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 64)
        value, deriv = TrigInterpolant([u]).value_and_derivative(y[None])
        ref_value, ref_deriv, coeff_sum = dense_interpolant(u, y)
        assert np.abs(value - ref_value).max() <= 1e-13 * coeff_sum
        assert np.abs(deriv - ref_deriv).max() <= 1e-13 * (n // 2 - 1) * coeff_sum

    @pytest.mark.parametrize("n", [8, 64, 1024, 16384])
    @pytest.mark.parametrize("spectrum", ["flat", "nyquist"])
    def test_extreme_spectra_match_dense_sum(self, n, spectrum):
        # a flat spectrum weights the top modes as much as the bottom ones;
        # Nyquist-only data put all of sum |c_k| on the mode where the Taylor
        # remainder and any error of the reduction y -> dy grow fastest
        rng = np.random.default_rng(n + 2)
        if spectrum == "flat":
            half = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n // 2 + 1))
            half[[0, -1]] = np.sign(half[[0, -1]].real)
            u = GridFunction(np.fft.irfft(n * half, n=n))
        else:
            u = GridFunction((-1.0) ** np.arange(n))
        # fine-grid nodes, the midpoints between them (largest remainder),
        # negative points and points above 2 pi
        fine = 2.0 * math.pi / (_OVERSAMPLE * n)
        nodes = rng.integers(-2 * _OVERSAMPLE * n, 2 * _OVERSAMPLE * n, 48)
        y = np.concatenate([
            nodes * fine,
            (nodes + 0.5) * fine,
            rng.uniform(-4.0 * math.pi, 0.0, 32),
            rng.uniform(2.0 * math.pi, 6.0 * math.pi, 32),
        ])
        value, deriv = TrigInterpolant([u]).value_and_derivative(y[None])
        ref_value, ref_deriv, coeff_sum = dense_interpolant(u, y)
        assert np.abs(value - ref_value).max() <= 1e-13 * coeff_sum
        assert np.abs(deriv - ref_deriv).max() <= 1e-13 * (n // 2 - 1) * coeff_sum

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_value_only_call_agrees(self, n):
        rng = np.random.default_rng(n + 1)
        u = random_grid_function(rng, n)
        interp = TrigInterpolant([u])
        y = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, (1, 300))
        value, _ = interp.value_and_derivative(y)
        coeff_sum = float(np.abs(np.fft.fft(u.values) / n).sum())
        assert np.abs(interp(y) - value).max() <= 1e-13 * coeff_sum
        assert np.array_equal(interp.derivative(y), interp.value_and_derivative(y)[1])

    def test_gathered_rows_give_the_fresh_values(self, rng):
        # reused rows are exact table rows: a point that keeps its fine node
        # reads its old row, and one that moves to another node is gathered again
        interp = TrigInterpolant([random_grid_function(rng, 32) for _ in range(2)])
        y = rng.uniform(0.0, 2.0 * math.pi, (2, 50))
        gathered = []
        interp.value_and_derivative(y, gathered)
        assert [a.shape[:2] for a in gathered] == [(2, 50), (2, 50)]
        step = 2.0 * math.pi / interp.nodes_per_datum
        near = y + np.where(rng.random(y.shape) < 0.5, 1e-3, 3.0) * step
        assert np.array_equal(interp(near, gathered), interp(near))
        fresh = []
        interp(near, fresh)
        assert all(np.array_equal(a, b) for a, b in zip(gathered, fresh))
        # rows kept for a subset of the data serve that subset's interpolant
        second = interp.rows(np.array([False, True]))
        kept = [a[1:] for a in gathered]
        value, deriv = second.value_and_derivative(near[1:], kept)
        assert np.array_equal(value, second(near[1:]))
        assert np.array_equal(deriv, second.derivative(near[1:]))

    def test_keeps_the_shape_of_its_argument(self, rng):
        interp = TrigInterpolant([random_grid_function(rng, 32)])
        grid = np.linspace(0.0, 6.0, 12).reshape(1, 3, 4)
        value, deriv = interp.value_and_derivative(grid)
        assert value.shape == deriv.shape == (1, 3, 4)
        assert np.array_equal(value.ravel(), interp(grid.reshape(1, 12)).ravel())
        assert np.shape(interp(np.array([1.5]))) == (1,)
        with pytest.raises(ValueError):  # points need a leading axis of one row per datum
            interp(1.5)
        with pytest.raises(ValueError):
            TrigInterpolant([random_grid_function(rng, 32)] * 2)(grid)

    def test_burgers_needs_few_evaluations_per_step(self, monkeypatch):
        calls = []
        for name in ("__call__", "value_and_derivative", "derivative"):
            method = getattr(TrigInterpolant, name)

            def counted(self, y, *gathered, method=method, name=name):
                calls.append(name)
                return method(self, y, *gathered)

            monkeypatch.setattr(TrigInterpolant, name, counted)
        u0 = sinusoid_datum(256, 0.1, 0.05)
        cfg = burgers_cfg(grid_size=256, T=0.5 * shock_time(u0)[0])
        burgers_flow([u0], cfg)
        assert len(calls) <= 3 * cfg.time_steps

    def test_near_shock_needs_few_evaluations_per_step(self, monkeypatch):
        # sub-ulp Newton corrections land on a bracket end and must count as
        # usable; sending them to the bracket midpoint cost ~32 calls a step
        calls = []
        for name in ("__call__", "value_and_derivative", "derivative"):
            method = getattr(TrigInterpolant, name)

            def counted(self, y, *gathered, method=method):
                calls.append(1)
                return method(self, y, *gathered)

            monkeypatch.setattr(TrigInterpolant, name, counted)
        u0 = sinusoid_datum(256, 1.0, 0.2)
        cfg = burgers_cfg(grid_size=256, T=0.8 * shock_time(u0)[0])
        burgers_flow([u0], cfg)  # every node still meets the 1e-12 residual gate
        assert len(calls) <= 3 * cfg.time_steps


class TestCheminLerner:
    def test_zero_trajectory(self, bank64):
        (traj,) = transport_flow([GridFunction.zeros(64)], transport_cfg())
        assert chemin_lerner_norm(traj, 2.0, bank64) == 0.0

    def test_constant_in_time_sup(self, bank64, rng):
        g = random_grid_function(rng, 64)
        (traj,) = transport_flow([g], transport_cfg(0.0))
        blocks = block_time_norms(traj, bank64, 1.5)
        expected = [
            sobolev_norm(GridFunction(row), 1.5) for row in decompose(g, bank64).blocks
        ]
        assert np.allclose(blocks, expected, rtol=1e-12)

    def test_constant_in_time_chemin_lerner(self, bank64, rng):
        # with every node the datum, both sup-in-time norms are the datum's norms
        g = random_grid_function(rng, 64)
        (traj,) = transport_flow([g], transport_cfg(0.0, T=0.8))
        blocks = [sobolev_norm(GridFunction(row), 1.0) for row in decompose(g, bank64).blocks]
        assert chemin_lerner_norm(traj, 1.0, bank64) == pytest.approx(
            math.sqrt(sum(b**2 for b in blocks)), rel=1e-12
        )
        assert sup_time_sobolev_norm(traj, 1.0) == pytest.approx(sobolev_norm(g, 1.0), rel=1e-12)

    def test_minkowski_and_block_contraction(self, bank64, rng):
        u0 = random_grid_function(rng, 64, max_mode=16, decay=2.0)
        (traj,) = transport_flow([u0], transport_cfg())
        s = 2.0
        sup = sup_time_sobolev_norm(traj, s)
        assert sup <= math.sqrt(3.0) * chemin_lerner_norm(traj, s, bank64) * (
            1 + 1e-12
        )
        assert block_time_norms(traj, bank64, s).max() <= sup * (1 + 1e-12)

    def test_grid_mismatch(self, bank256, rng):
        (traj,) = transport_flow([random_grid_function(rng, 64)], transport_cfg())
        with pytest.raises(ValueError):
            chemin_lerner_norm(traj, 1.0, bank256)


class TestFlowAsSequenceMap:
    def test_zero_datum_maps_to_zero(self, bank64):
        phi = flow_as_sequence_map(transport_cfg(), bank64)
        (image,) = phi([decompose(GridFunction.zeros(64), bank64)])
        assert image.shape == (bank64.j_max + 1,) and not image.any()

    def test_transport_preserves_block_norms(self, bank64, rng):
        u0 = random_grid_function(rng, 64, max_mode=16, decay=2.0)
        f = decompose(u0, bank64)
        (image,) = flow_as_sequence_map(transport_cfg(), bank64)([f])
        assert np.allclose(image, f.block_norms, rtol=1e-12)

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_transport_images_depend_on_the_data_alone(self, n):
        # no block norm grows past its t = 0 value, so speed, horizon and time
        # grid leave every image bit for bit as it is
        bank = build_filters(n)
        rng = np.random.default_rng(n)
        # the Nyquist mode set: transport scales it by a cosine, not a phase
        family = [decompose(random_grid_function(rng, n, max_mode=n // 2), bank) for _ in range(3)]
        runs = [
            np.array(flow_as_sequence_map(
                transport_cfg(speed, grid_size=n, T=T, time_steps=steps), bank
            )(family))
            for speed, T, steps in [
                (1.0, 1.0, 64), (0.0, 1.0, 64), (-1.0, 3.7, 7), (-0.37, 0.25, 1), (13.0, 1.0, 128)
            ]
        ]
        assert runs[0][:, -1].all()
        for images in runs[1:]:
            assert np.array_equal(images, runs[0])

    def test_burgers_output_support_capped(self, bank64):
        u0 = sinusoid_datum(64, 0.1)
        f = decompose(u0, bank64)
        images = np.array(flow_as_sequence_map(burgers_cfg(), bank64)([f]))
        assert images.shape == (1, bank64.j_max + 1)
        assert dyadic_norm(images, (2.0, 2.0))[0] > 0.0

    def test_images_are_read_only_block_time_norm_rows(self, bank64):
        u0 = sinusoid_datum(64, 0.1, 0.05)
        f = decompose(u0, bank64)
        cfg = burgers_cfg()
        (image,) = flow_as_sequence_map(cfg, bank64)([f])
        assert not image.flags.writeable
        datum = reconstruct(f, bank64)  # the map solves the datum its blocks rebuild
        assert np.array_equal(image, block_time_norms(burgers_flow([datum], cfg)[0], bank64))


class TestTimeContinuity:
    def test_zero_trajectory(self, bank64):
        (traj,) = transport_flow([GridFunction.zeros(64)], transport_cfg())
        assert np.all(time_continuity_modulus(traj, 2.0, bank64) == 0.0)

    def test_burgers_tails(self, bank64):
        (traj,) = burgers_flow([sinusoid_datum(64, 0.1, 0.05)], burgers_cfg())
        tails = time_continuity_modulus(traj, 2.0, bank64)
        assert np.all(np.diff(tails) <= 1e-15)
        assert tails[bank64.j_max] <= 1e-12 * tails[0]
        sups = [
            max(sobolev_norm(GridFunction(row), 2.0) for row in rows)
            for rows in zip(*(decompose(state, bank64).blocks for state in traj.states))
        ]
        expected = [sum(v**2 for v in sups[start:]) for start in range(len(sups) + 1)]
        assert tails == pytest.approx(expected, rel=1e-9, abs=1e-15 * expected[0])

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_tails_run_from_the_chemin_lerner_square_to_zero(self, bank64, kind):
        # tail 0 sums every block and the last tail sums none
        if kind == "transport":
            u0 = random_grid_function(np.random.default_rng(7), 64)
            (traj,) = transport_flow([u0], transport_cfg(time_steps=40))
        else:
            (traj,) = burgers_flow([sinusoid_datum(64, 0.1, 0.05)], burgers_cfg())
        tails = time_continuity_modulus(traj, 2.0, bank64)
        assert tails.shape == (bank64.j_max + 2,)
        assert tails[0] == pytest.approx(chemin_lerner_norm(traj, 2.0, bank64) ** 2, rel=1e-14)
        assert tails[-1] == 0.0

    @pytest.mark.parametrize("speed", [0.0, 1.3])
    def test_transport_tails_are_the_datum_tails(self, bank64, rng, speed):
        # a translation keeps every block's H^s norm, so each sup in time is the datum's
        g = random_grid_function(rng, 64)
        (traj,) = transport_flow([g], transport_cfg(speed))
        squares = [
            sobolev_norm(GridFunction(row), 2.0) ** 2 for row in decompose(g, bank64).blocks
        ]
        expected = [sum(squares[start:]) for start in range(len(squares) + 1)]
        assert time_continuity_modulus(traj, 2.0, bank64) == pytest.approx(
            expected, rel=1e-9, abs=1e-15 * expected[0]
        )


def loop_transport(u0, speed, times):
    """Per-node reference: one full FFT phase shift per time node."""
    coeffs = np.fft.fft(u0.values)
    freqs = np.rint(np.fft.fftfreq(u0.grid_size, 1.0 / u0.grid_size))
    return np.array([np.fft.ifft(coeffs * np.exp(-1j * freqs * speed * t)).real for t in times])


def brute_block_time_norms(traj, bank, s):
    """Decompose every state and take each block's Sobolev norm, then its sup in time."""
    table = np.array(
        [
            [sobolev_norm(GridFunction(row), s) for row in decompose(state, bank).blocks]
            for state in traj.states
        ]
    ).T
    return table.max(axis=1)


class TestBatchedSpectralPath:
    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    def test_transport_matches_per_node_phase_shift(self, n):
        rng = np.random.default_rng(n)
        u0 = random_grid_function(rng, n, max_mode=n // 2)  # Nyquist mode set
        cfg = transport_cfg(1.7, grid_size=n, T=1.3, time_steps=16)
        (traj,) = transport_flow([u0], cfg)
        ref = loop_transport(u0, 1.7, cfg.time_nodes())
        assert traj.samples.shape == ref.shape
        assert np.abs(traj.samples - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def test_transport_repeated_calls_stay_exact(self, rng):
        flow = make_flow(transport_cfg(0.9))
        (first,) = flow([random_grid_function(rng, 64)])
        (second,) = flow([random_grid_function(rng, 64)])
        assert not np.array_equal(first.samples, second.samples)
        ref = loop_transport(GridFunction(second.samples[0]), 0.9, second.times)
        assert np.abs(second.samples - ref).max() <= 1e-13

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_block_time_norms_match_brute_force(self, n, kind):
        bank = build_filters(n)
        if kind == "transport":
            u0 = random_grid_function(np.random.default_rng(n), n, decay=0.5)
            (traj,) = transport_flow([u0], transport_cfg(1.3, grid_size=n, time_steps=24))
        else:
            u0 = sinusoid_datum(n, 0.1, 0.05)
            (traj,) = burgers_flow([u0], burgers_cfg(grid_size=n, time_steps=24))
        for s in (0.0, 1.5):
            got = block_time_norms(traj, bank, s)
            ref = brute_block_time_norms(traj, bank, s)
            # blocks at the rounding floor of a band-limited Burgers state are
            # compared absolutely, against the largest block
            floor = 1e-12 * ref.max()
            assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * ref, floor))
            assert sup_time_sobolev_norm(traj, s) == pytest.approx(
                max(sobolev_norm(state, s) for state in traj.states), rel=1e-12
            )

    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    def test_sup_norm_matches_complex_fft_plancherel_sum(self, n):
        # per state sqrt(TAU sum (1 + xi^2)^s |c_xi|^2) over all N complex-FFT
        # slots, the Nyquist mode set, then the max over the time nodes
        u0 = random_grid_function(np.random.default_rng(n + 3), n, max_mode=n // 2)
        (traj,) = transport_flow([u0], transport_cfg(0.7, grid_size=n, time_steps=12))
        freqs = np.rint(np.fft.fftfreq(n, 1.0 / n))
        power = np.abs(np.fft.fft(traj.samples, axis=1) / n) ** 2
        for s in (-1.0, 0.0, 1.5, 3.0):
            ref = np.sqrt(2.0 * math.pi * (power @ (1.0 + freqs**2) ** s)).max()
            assert sup_time_sobolev_norm(traj, s) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_block_norms_reject_grid_mismatch(self, bank64, rng):
        (traj,) = transport_flow([random_grid_function(rng, 32)], transport_cfg(grid_size=32))
        with pytest.raises(GridMismatchError):
            block_time_norms(traj, bank64)
        with pytest.raises(GridMismatchError):
            time_continuity_modulus(traj, 1.0, bank64)


class TestStackedTrajectory:
    def test_read_only_and_detached(self):
        spectra = np.zeros((3, 5), complex)
        traj = Trajectory(np.linspace(0.0, 1.0, 3), spectra)
        spectra[0, 0] = 8.0  # the caller's array is copied, not adopted
        assert traj.samples[0, 0] == 0.0
        assert traj.states == tuple(GridFunction(row) for row in traj.samples)
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 2.0
        with pytest.raises(ValueError):
            traj.times[0] = 2.0
        with pytest.raises(AttributeError):
            traj.samples = np.ones((3, 8))
        with pytest.raises(AttributeError):
            traj.times = np.linspace(0.0, 2.0, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.0] * 8, [np.nan] + [0.0] * 7, [0.0] * 8]),
            np.array([[0.0] * 8, [np.inf] * 8, [0.0] * 8]),
            np.zeros(8),
            np.zeros((3, 8, 1)),
            np.zeros((2, 8)),
            np.zeros((3, 12)),
            np.zeros((3, 4)),
        ],
    )
    def test_rejects_bad_samples(self, bad):
        with np.errstate(invalid="ignore"):
            spectra = np.fft.rfft(bad, axis=-1)  # the half spectra of the bad samples
        with pytest.raises(ValueError):
            Trajectory(np.linspace(0.0, 1.0, 3), spectra)

def nyquist_only(n, amplitude=0.7):
    """amplitude cos(N x / 2) on the grid: (-1)^j amplitude."""
    return GridFunction(amplitude * (-1.0) ** np.arange(n))


class TestSpectralTrajectory:
    TIMES = np.linspace(0.0, 1.0, 3)

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 6, 8, 10, 16])
    def test_rejects_width_not_half_of_a_power_of_two(self, width):
        # N = 2 (W - 1) must be a power of two >= 8: W = 5, 9, 17, ...
        with pytest.raises(ValueError):
            Trajectory(self.TIMES, spectra=np.zeros((3, width), complex))

    @pytest.mark.parametrize(
        "bad",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)],
    )
    def test_rejects_non_finite_spectra(self, bad):
        spectra = np.zeros((3, 5), complex)
        spectra[1, 2] = bad
        with pytest.raises(ValueError):
            Trajectory(self.TIMES, spectra=spectra)

    @pytest.mark.parametrize("slot", [0, -1])
    def test_rejects_imaginary_mode_zero_or_nyquist(self, slot):
        # irfft drops these imaginary parts, so no real state has them
        spectra = np.zeros((3, 5), complex)
        spectra[2, slot] = 1.0 + 1e-300j
        with pytest.raises(ValueError):
            Trajectory(self.TIMES, spectra=spectra)

    def test_spectra_read_only_and_detached(self):
        spectra = np.zeros((3, 5), complex)
        spectra[:, 1] = 1.0 - 2.0j
        traj = Trajectory(self.TIMES, spectra=spectra)
        spectra[0, 1] = 5.0  # the caller's array is copied, not adopted
        assert traj.spectra[0, 1] == 1.0 - 2.0j
        assert traj.grid_size == 8
        with pytest.raises(ValueError):
            traj.spectra[0, 1] = 2.0
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 2.0
        with pytest.raises(AttributeError):
            traj.spectra = np.zeros((3, 5), complex)
        assert np.array_equal(traj.samples, np.fft.irfft(traj.spectra, n=8, axis=1))

    def test_read_only_spectra_are_adopted(self):
        spectra = np.zeros((3, 9), complex)
        spectra.setflags(write=False)
        assert Trajectory(self.TIMES, spectra=spectra).spectra is spectra

    def test_derived_form_is_not_kept(self, rng):
        u0 = random_grid_function(rng, 64)
        (transported,) = transport_flow([u0], transport_cfg(time_steps=4))
        assert transported.samples is not transported.samples
        (solved,) = burgers_flow([sinusoid_datum(64, 0.1, 0.05)], burgers_cfg(time_steps=4))
        assert solved.samples is not solved.samples
        assert np.array_equal(solved.samples, np.fft.irfft(solved.spectra, n=64, axis=1))

    def test_burgers_block_norms_take_no_fft(self, monkeypatch, bank64):
        # a Burgers trajectory holds the spectra that every block norm reads
        (traj,) = burgers_flow([sinusoid_datum(64, 0.1, 0.05)], burgers_cfg(time_steps=4))
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        block_time_norms(traj, bank64)
        time_continuity_modulus(traj, 2.0, bank64)
        assert calls == []

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_flows_take_a_list_of_data(self, kind):
        flow = make_flow(transport_cfg() if kind == "transport" else burgers_cfg())
        u0 = sinusoid_datum(64, 0.1)
        with pytest.raises(TypeError):
            flow(u0)
        (traj,) = flow([u0])
        assert traj.grid_size == 64

    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    @pytest.mark.parametrize("datum", ["nyquist-only", "random"])
    def test_transport_spectra_are_the_spectra_of_its_samples(self, n, datum):
        if datum == "nyquist-only":
            u0 = nyquist_only(n)
        else:
            u0 = random_grid_function(np.random.default_rng(n), n, max_mode=n // 2)
        (traj,) = transport_flow([u0], transport_cfg(1.7, grid_size=n, T=1.3, time_steps=16))
        spectra = traj.spectra
        assert spectra.shape == (17, n // 2 + 1)
        ref = np.fft.rfft(traj.samples, axis=1)
        assert np.abs(ref - spectra).max() <= 1e-13 * np.abs(spectra).max()

    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_transported_nyquist_mode_on_the_grid(self, n):
        # cos(N (x - c t) / 2) at the nodes is cos(N x / 2) cos(N c t / 2)
        cfg = transport_cfg(1.7, grid_size=n, T=1.3, time_steps=16)
        (traj,) = transport_flow([nyquist_only(n)], cfg)
        exact = 0.7 * np.outer(np.cos(0.5 * n * 1.7 * cfg.time_nodes()), (-1.0) ** np.arange(n))
        assert np.abs(traj.samples - exact).max() <= 1e-13 * n


class TestTransportStaysInFourierSpace:
    """One call of the sequence map on transport data: the only transform in ``flows`` is
    one real FFT of the whole (count, N) data stack, and no trajectory is built."""

    @pytest.mark.parametrize("n, count", [(256, 10), (2048, 3)])
    def test_one_rfft_of_the_stack_and_no_trajectory(self, monkeypatch, n, count):
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                if sys._getframe(1).f_globals.get("__name__") == "besovflow.flows":
                    calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        built = []
        init = Trajectory.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Trajectory, "__init__", counted_init)
        bank = build_filters(n)
        rng = np.random.default_rng(n)
        family = [decompose(random_grid_function(rng, n, max_mode=20), bank) for _ in range(count)]
        images = np.array(flow_as_sequence_map(transport_cfg(grid_size=n), bank)(family))
        assert calls == [("rfft", (count, n))]
        assert built == []
        assert images.shape == (count, bank.j_max + 1)


class TestImagesMatchTrajectoryPath:
    """The sequence map's images against block_time_norms of the flow's trajectories."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        exponent=st.integers(3, 12),
        speed=st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.37, 13.0]),
        T=st.sampled_from([0.25, 1.0, 3.7]),
        time_steps=st.sampled_from([1, 7, 32, 128]),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_transport_images_equal_block_time_norms(
        self, exponent, speed, T, time_steps, count, seed
    ):
        n = 2**exponent
        bank = build_filters(n)
        rng = np.random.default_rng(seed)
        # the Nyquist mode set, so its cosine column of the phase table counts
        family = [
            decompose(random_grid_function(rng, n, max_mode=n // 2), bank) for _ in range(count)
        ]
        cfg = transport_cfg(speed, grid_size=n, T=T, time_steps=time_steps)
        images = flow_as_sequence_map(cfg, bank)(family)
        data = [reconstruct(f, bank) for f in family]
        for image, traj in zip(images, transport_flow(data, cfg), strict=True):
            ref = block_time_norms(traj, bank)
            assert not image.flags.writeable and image.shape == ref.shape
            assert np.all(np.abs(image - ref) <= 64 * np.finfo(float).eps * ref.max())

    def test_empty_request(self, bank64):
        assert flow_as_sequence_map(transport_cfg(), bank64)([]) == []

    def test_burgers_images_are_the_trajectory_path_bit_for_bit(self):
        # N = 512 groups 2048 // 512 = 4 data, so the five data take two groups
        n = 512
        bank = build_filters(n)
        data = [sinusoid_datum(n, 0.1 - 0.03 * i, 0.02 * i) for i in range(5)]
        family = [decompose(u, bank) for u in data]
        cfg = burgers_cfg(grid_size=n, time_steps=16)
        images = flow_as_sequence_map(cfg, bank)(family)
        rebuilt = [reconstruct(f, bank) for f in family]
        for image, traj in zip(images, burgers_flow(rebuilt, cfg), strict=True):
            assert np.array_equal(image, block_time_norms(traj, bank))


class TestFullPipeline:
    def test_transport_constants_stable_under_sample_growth(self, bank64, rng):
        data = [random_grid_function(rng, 64, max_mode=12, decay=2.0) for _ in range(8)]
        family = [decompose(u, bank64) for u in data]
        radius = 2.0 * max(norm(f, (2.0, 2.0)) for f in family)
        phi = flow_as_sequence_map(transport_cfg(), bank64)
        adapter = FlowMapAdapter(phi, radius, *SCALE)
        pairs = [
            (family[i], family[j]) for i in range(len(family)) for j in range(i)
        ]
        half = estimate_constants(adapter, pairs[: len(pairs) // 2])
        full = estimate_constants(adapter, pairs)
        assert half.C0_hat == pytest.approx(full.C0_hat, rel=0.5)
        assert half.C1_hat == pytest.approx(full.C1_hat, rel=0.5)
        assert math.isfinite(full.C0_hat) and math.isfinite(full.C1_hat)

    def test_constants_stabilize_and_bounds_hold(self, rng):
        bank = build_filters(128)
        data = [
            sinusoid_datum(128, a, b)
            for a, b in [
                (0.10, 0.05), (0.08, -0.04), (-0.06, 0.05),
                (0.12, 0.00), (0.05, 0.06), (-0.09, -0.03),
            ]
        ]
        family = [decompose(u, bank) for u in data]
        radius = 2.0 * max(norm(f, (2.0, 2.0)) for f in family)
        phi = flow_as_sequence_map(burgers_cfg(grid_size=128), bank)
        adapter = FlowMapAdapter(phi, radius, *SCALE)
        pairs = [
            (family[i], family[j]) for i in range(len(family)) for j in range(i)
        ]
        half = estimate_constants(adapter, pairs[: len(pairs) // 2])
        full = estimate_constants(adapter, pairs)
        assert 0.5 <= half.C0_hat / full.C0_hat <= 1.0

        verified = verify_map(phi, family, SCALE)
        assert not any(check.failed for check in verified.checks)
        assert verified.continuity.trend_ok


class TestTrajectoryPlumbing:
    def test_serialization_round_trip(self, tmp_path, rng):
        u0 = random_grid_function(rng, 64)
        (traj,) = transport_flow([u0], transport_cfg(time_steps=8))
        save_trajectory(tmp_path / "traj", traj, "transport", "abc123")
        manifest = json.loads((tmp_path / "traj" / "manifest.json").read_text(encoding="utf-8"))
        assert np.allclose(manifest["times"], traj.times)
        states = [
            load_grid_function(tmp_path / "traj" / f"state_{index:04d}.gfn")
            for index in range(len(manifest["times"]))
        ]
        assert all(a == b for a, b in zip(states, traj.states))
        assert np.array_equal(np.stack([state.values for state in states]), traj.samples)
        assert manifest["mu"] == "inf" and manifest["grid_size"] == traj.grid_size

    def test_uniform_times_required(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.1, 0.5]), spectra=np.zeros((3, 5)))
