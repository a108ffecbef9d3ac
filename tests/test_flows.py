import math

import numpy as np
import pytest

from besovflow.dyadic import dyadic_norm, truncate
from besovflow.engine import (
    BallViolationError,
    convergence_report,
    estimate_constants,
)
from besovflow.littlewood_paley import (
    GridFunction,
    GridMismatchError,
    build_filters,
    decompose,
    frequencies,
    grid_l2_space,
    random_grid_function,
    sobolev_norm,
)
from besovflow.flows import (
    FlowConfig,
    ShockMarginError,
    Trajectory,
    TrigInterpolant,
    block_sup_tails,
    block_time_norms,
    burgers_flow,
    burgers_spectral_reference,
    chemin_lerner_norm,
    chemin_lerner_sup_norm,
    flow_as_sequence_map,
    global_max_abs,
    lmu_time_sobolev_norm,
    load_trajectory,
    make_flow,
    save_trajectory,
    shock_time,
    sinusoid_datum,
    time_continuity_modulus,
    trajectory_sup_l2_space,
    transport_flow,
)
from besovflow.pseudonorm import (
    KindMismatchError,
    PseudoNormedSpace,
    axiom_probe,
    eval_pseudo_norm,
)

INF = math.inf


def transport_cfg(**overrides):
    base = dict(
        grid_size=64, T=1.0, time_steps=64, flow_kind="transport",
        transport_speed=1.0, s0=0.0, s=2.0, s1=3.0, q=2.0,
    )
    base.update(overrides)
    return FlowConfig(**base)


def burgers_cfg(**overrides):
    base = dict(
        grid_size=64, T=0.5, time_steps=64, flow_kind="burgers",
        s0=0.0, s=2.0, s1=3.0, q=2.0,
    )
    base.update(overrides)
    return FlowConfig(**base)


class TestTransportFlow:
    def test_zero_datum(self):
        traj = transport_flow(GridFunction.zeros(64), 1.0, transport_cfg())
        assert all(np.abs(s.values).max() == 0.0 for s in traj.states)

    def test_zero_speed_is_constant(self, rng):
        u0 = random_grid_function(rng, 64)
        traj = transport_flow(u0, 0.0, transport_cfg())
        for state in traj.states:
            assert np.abs(state.values - u0.values).max() <= 1e-13

    def test_exact_phase_shift(self):
        u0 = GridFunction.from_function(np.cos, 64)
        cfg = transport_cfg(T=math.pi / 2.0, time_steps=64)
        traj = transport_flow(u0, 1.0, cfg)
        x = u0.nodes
        expected = np.cos(x - math.pi / 2.0)
        assert np.abs(traj.states[-1].values - expected).max() <= 1e-12

    def test_sobolev_conservation(self, rng):
        u0 = random_grid_function(rng, 64)
        traj = transport_flow(u0, 1.7, transport_cfg())
        for s in (-1.0, 0.0, 2.0):
            reference = sobolev_norm(u0, s)
            for state in traj.states:
                assert sobolev_norm(state, s) == pytest.approx(
                    reference, rel=1e-12
                )


class TestBurgersFlow:
    def test_zero_datum(self):
        traj = burgers_flow(GridFunction.zeros(64), burgers_cfg())
        assert all(np.abs(s.values).max() == 0.0 for s in traj.states)

    def test_constant_datum_is_steady(self):
        u0 = GridFunction(np.full(64, 0.3))
        traj = burgers_flow(u0, burgers_cfg())
        for state in traj.states:
            assert np.abs(state.values - 0.3).max() <= 1e-12

    def test_shock_time_of_sine(self):
        u0 = sinusoid_datum(256, 0.1)
        assert shock_time(u0) == pytest.approx(10.0, rel=1e-9)

    def test_shock_margin_enforced(self):
        u0 = sinusoid_datum(64, 1.0)  # shock time 1.0
        with pytest.raises(ShockMarginError):
            burgers_flow(u0, burgers_cfg(T=0.95))
        burgers_flow(u0, burgers_cfg(T=0.85))  # inside the margin

    def test_matches_pseudospectral_reference(self):
        u0 = sinusoid_datum(256, 0.1)
        cfg = burgers_cfg(grid_size=256, T=0.5)
        traj = burgers_flow(u0, cfg)
        reference = burgers_spectral_reference(u0, traj.times, steps_per_interval=32)
        worst = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(traj.states, reference.states)
        )
        assert worst <= 1e-6

    def test_vanishing_viscosity_approaches_characteristics(self):
        u0 = sinusoid_datum(128, 0.1)
        cfg = burgers_cfg(grid_size=128, T=0.5)
        traj = burgers_flow(u0, cfg)
        errors = []
        for nu in (1e-3, 1e-4, 0.0):
            reference = burgers_spectral_reference(
                u0, traj.times, steps_per_interval=32, viscosity=nu
            )
            errors.append(
                max(
                    np.abs(a.values - b.values).max()
                    for a, b in zip(traj.states, reference.states)
                )
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] <= 1e-6

    def test_maximum_principle(self, rng):
        u0 = sinusoid_datum(64, 0.11, 0.04)
        cfg = burgers_cfg(T=0.5)
        traj = burgers_flow(u0, cfg)
        cap = global_max_abs(u0)
        for state in traj.states:
            assert np.abs(state.values).max() <= cap + 1e-12

    def test_mean_conservation(self):
        u0 = sinusoid_datum(128, 0.1, 0.05)
        cfg = burgers_cfg(grid_size=128, T=0.5)
        traj = burgers_flow(u0, cfg)
        mean0 = float(np.mean(u0.values))
        for state in traj.states:
            assert float(np.mean(state.values)) == pytest.approx(
                mean0, abs=1e-10
            )

    def test_interpolant_exact_at_nodes(self, rng):
        u0 = random_grid_function(rng, 64)
        interp = TrigInterpolant(u0)
        assert np.abs(interp(u0.nodes) - u0.values).max() <= 1e-12
        value, deriv = interp.value_and_derivative(np.linspace(0, 6.0, 50))
        assert np.allclose(value, interp(np.linspace(0, 6.0, 50)))


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
    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    def test_blocked_kernel_matches_dense_sum(self, n):
        rng = np.random.default_rng(n)
        u = random_grid_function(rng, n)
        y = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 64)
        value, deriv = TrigInterpolant(u).value_and_derivative(y)
        ref_value, ref_deriv, coeff_sum = dense_interpolant(u, y)
        assert np.abs(value - ref_value).max() <= 1e-13 * coeff_sum
        assert np.abs(deriv - ref_deriv).max() <= 1e-13 * (n // 2 - 1) * coeff_sum

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_value_only_call_agrees(self, n):
        rng = np.random.default_rng(n + 1)
        u = random_grid_function(rng, n)
        interp = TrigInterpolant(u)
        y = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 300)
        value, _ = interp.value_and_derivative(y)
        coeff_sum = float(np.abs(np.fft.fft(u.values) / n).sum())
        assert np.abs(interp(y) - value).max() <= 1e-13 * coeff_sum
        assert np.array_equal(interp.derivative(y), interp.value_and_derivative(y)[1])

    def test_keeps_the_shape_of_its_argument(self, rng):
        interp = TrigInterpolant(random_grid_function(rng, 32))
        grid = np.linspace(0.0, 6.0, 12).reshape(3, 4)
        value, deriv = interp.value_and_derivative(grid)
        assert value.shape == deriv.shape == (3, 4)
        assert np.array_equal(value.ravel(), interp(grid.ravel()))
        assert np.ndim(interp(1.5)) == 0
        assert float(interp(1.5)) == pytest.approx(float(interp(np.array([1.5]))[0]), abs=1e-15)

    def test_burgers_needs_few_evaluations_per_step(self, monkeypatch):
        calls = []
        for name in ("__call__", "value_and_derivative", "derivative"):
            method = getattr(TrigInterpolant, name)

            def counted(self, y, method=method, name=name):
                calls.append(name)
                return method(self, y)

            monkeypatch.setattr(TrigInterpolant, name, counted)
        u0 = sinusoid_datum(256, 0.1, 0.05)
        cfg = burgers_cfg(grid_size=256, T=0.5 * shock_time(u0))
        burgers_flow(u0, cfg)
        assert len(calls) <= 3 * cfg.time_steps

    def test_near_shock_needs_few_evaluations_per_step(self, monkeypatch):
        # sub-ulp Newton corrections land on a bracket end and must count as
        # usable; sending them to the bracket midpoint cost ~32 calls a step
        calls = []
        for name in ("__call__", "value_and_derivative", "derivative"):
            method = getattr(TrigInterpolant, name)

            def counted(self, y, method=method):
                calls.append(1)
                return method(self, y)

            monkeypatch.setattr(TrigInterpolant, name, counted)
        u0 = sinusoid_datum(256, 1.0, 0.2)
        cfg = burgers_cfg(grid_size=256, T=0.8 * shock_time(u0))
        burgers_flow(u0, cfg)  # every node still meets the 1e-12 residual gate
        assert len(calls) <= 3 * cfg.time_steps


class TestCheminLerner:
    def test_zero_trajectory(self, bank64):
        traj = transport_flow(GridFunction.zeros(64), 1.0, transport_cfg())
        assert chemin_lerner_norm(traj, 2.0, bank64) == 0.0

    def test_constant_in_time_sup(self, bank64, rng):
        g = random_grid_function(rng, 64)
        traj = transport_flow(g, 0.0, transport_cfg(mu=INF))
        blocks = block_time_norms(traj, bank64, 1.5)
        expected = [
            sobolev_norm(entry, 1.5) for entry in decompose(g, bank64).entries
        ]
        assert np.allclose(blocks, expected, rtol=1e-12)

    def test_constant_in_time_finite_mu(self, bank64, rng):
        g = random_grid_function(rng, 64)
        cfg = transport_cfg(mu=4.0, T=0.8)
        traj = transport_flow(g, 0.0, cfg)
        value = chemin_lerner_norm(traj, 1.0, bank64)
        steady = math.sqrt(
            sum(
                sobolev_norm(entry, 1.0) ** 2
                for entry in decompose(g, bank64).entries
            )
        )
        assert value == pytest.approx(cfg.T ** (1.0 / 4.0) * steady, rel=1e-12)

    def test_minkowski_and_block_contraction(self, bank64, rng):
        u0 = random_grid_function(rng, 64, max_mode=16, decay=2.0)
        traj = transport_flow(u0, 1.0, transport_cfg(mu=INF))
        s = 2.0
        lmu = lmu_time_sobolev_norm(traj, s)
        assert lmu <= math.sqrt(3.0) * chemin_lerner_norm(traj, s, bank64) * (
            1 + 1e-12
        )
        assert chemin_lerner_sup_norm(traj, s, bank64) <= lmu * (1 + 1e-12)

    def test_grid_mismatch(self, bank256, rng):
        traj = transport_flow(random_grid_function(rng, 64), 1.0, transport_cfg())
        with pytest.raises(ValueError):
            chemin_lerner_norm(traj, 1.0, bank256)


class TestFlowAsSequenceMap:
    def test_zero_datum_maps_to_zero(self, bank64):
        cfg = transport_cfg(ball_radius=10.0)
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank64)
        image = adapter(decompose(GridFunction.zeros(64), bank64))
        assert dyadic_norm(image, (0.0, 1.0)) == 0.0

    def test_transport_preserves_block_norms(self, bank64, rng):
        u0 = random_grid_function(rng, 64, max_mode=16, decay=2.0)
        f = decompose(u0, bank64)
        cfg = transport_cfg(mu=INF, ball_radius=2.0 * dyadic_norm(f, (2.0, 2.0)))
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank64)
        image = adapter(f)
        assert np.allclose(image.block_norms, f.block_norms, rtol=1e-12)

    def test_burgers_output_support_capped(self, bank64):
        u0 = sinusoid_datum(64, 0.1)
        f = decompose(u0, bank64)
        cfg = burgers_cfg(ball_radius=2.0 * dyadic_norm(f, (2.0, 2.0)))
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank64)
        image = adapter(f)
        assert image.support <= bank64.j_max + 1
        assert dyadic_norm(image, (2.0, 2.0)) > 0.0

    def test_ball_checked(self, bank64):
        u0 = sinusoid_datum(64, 0.1)
        f = decompose(u0, bank64)
        cfg = burgers_cfg(ball_radius=0.5 * dyadic_norm(f, (2.0, 2.0)))
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank64)
        with pytest.raises(BallViolationError):
            adapter(f)

    def test_radius_required(self, bank64):
        cfg = transport_cfg(ball_radius=None)
        with pytest.raises(ValueError):
            flow_as_sequence_map(make_flow(cfg), cfg, bank64)


class TestTimeContinuity:
    def test_zero_trajectory(self, bank64):
        traj = transport_flow(GridFunction.zeros(64), 1.0, transport_cfg())
        report = time_continuity_modulus(traj, 2.0, bank64)
        assert np.all(report.tails == 0.0)
        assert all(m == 0.0 for _, m in report.moduli)

    def test_constant_trajectory_modulus_zero(self, bank64, rng):
        g = random_grid_function(rng, 64)
        traj = transport_flow(g, 0.0, transport_cfg())
        report = time_continuity_modulus(traj, 2.0, bank64)
        assert all(m <= 1e-12 for _, m in report.moduli)

    def test_requires_sup_time_norm(self, bank64, rng):
        traj = transport_flow(
            random_grid_function(rng, 64), 1.0, transport_cfg(mu=4.0)
        )
        with pytest.raises(ValueError):
            time_continuity_modulus(traj, 2.0, bank64)

    def test_burgers_tails_and_moduli(self, bank64):
        u0 = sinusoid_datum(64, 0.1, 0.05)
        traj = burgers_flow(u0, burgers_cfg())
        report = time_continuity_modulus(traj, 2.0, bank64)
        tails = report.tails
        assert np.all(np.diff(tails) <= 1e-15)
        assert tails[bank64.j_max] <= 1e-12 * tails[0]
        moduli = [m for _, m in report.moduli]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(moduli, moduli[1:]))
        # one-step modulus equals the largest consecutive-state distance
        consecutive = max(
            math.sqrt(
                sum(
                    (1 + k**2) ** 2 * abs(c1 - c2) ** 2
                    for k, c1, c2 in zip(
                        np.rint(np.fft.fftfreq(64, 1 / 64)),
                        np.fft.fft(a.values) / 64,
                        np.fft.fft(b.values) / 64,
                    )
                )
                * 2
                * math.pi
            )
            for a, b in zip(traj.states, traj.states[1:])
        )
        assert report.moduli[0][1] == pytest.approx(consecutive, rel=1e-9)

    def test_block_sup_tails(self, bank64):
        traj = burgers_flow(sinusoid_datum(64, 0.1, 0.05), burgers_cfg())
        tails = block_sup_tails(traj, 2.0, bank64)
        assert np.array_equal(tails, time_continuity_modulus(traj, 2.0, bank64).tails)
        sups = [
            max(sobolev_norm(block, 2.0) for block in blocks)
            for blocks in zip(*(decompose(state, bank64).entries for state in traj.states))
        ]
        expected = [sum(v**2 for v in sups[start:]) for start in range(len(sups) + 1)]
        assert tails == pytest.approx(expected, rel=1e-9, abs=1e-15 * expected[0])

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_moduli_match_brute_force_at_every_lag(self, bank64, kind):
        if kind == "transport":
            u0 = random_grid_function(np.random.default_rng(7), 64)
            traj = transport_flow(u0, 1.0, transport_cfg(time_steps=40))
        else:
            traj = burgers_flow(sinusoid_datum(64, 0.1, 0.05), burgers_cfg())
        report = time_continuity_modulus(traj, 2.0, bank64)
        m = len(traj.states)
        lags = [round(delta / traj.dt) for delta, _ in report.moduli]
        assert lags == [2**k for k in range(len(lags))]
        assert lags[-1] < m <= 2 * lags[-1]
        distance = {
            (i, j): sobolev_norm(traj.states[i] - traj.states[j], 2.0)
            for i in range(m)
            for j in range(i + 1, m)
        }
        for lag, (_, modulus) in zip(lags, report.moduli):
            expected = max(d for (i, j), d in distance.items() if j - i <= lag)
            assert modulus == pytest.approx(expected, rel=1e-9)


def loop_transport(u0, speed, times):
    """Per-node reference: one full FFT phase shift per time node."""
    coeffs = np.fft.fft(u0.values)
    freqs = frequencies(u0.grid_size)
    return np.array([np.fft.ifft(coeffs * np.exp(-1j * freqs * speed * t)).real for t in times])


def brute_block_time_norms(traj, bank, s):
    """Decompose every state and take each block's Sobolev norm, then combine in time."""
    table = np.array(
        [[sobolev_norm(block, s) for block in decompose(state, bank).entries] for state in traj.states]
    ).T
    if math.isinf(traj.mu):
        return table.max(axis=1)
    weights = np.full(traj.times.size, traj.dt)
    weights[[0, -1]] *= 0.5
    return (table**traj.mu @ weights) ** (1.0 / traj.mu)


class TestBatchedSpectralPath:
    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    def test_transport_matches_per_node_phase_shift(self, n):
        rng = np.random.default_rng(n)
        u0 = random_grid_function(rng, n, max_mode=n // 2)  # Nyquist mode set
        cfg = transport_cfg(grid_size=n, T=1.3, time_steps=16)
        traj = transport_flow(u0, 1.7, cfg)
        ref = loop_transport(u0, 1.7, cfg.time_nodes())
        assert traj.samples.shape == ref.shape
        assert np.abs(traj.samples - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def test_transport_reuses_one_phase_table(self, rng):
        flow = make_flow(transport_cfg(transport_speed=0.9))
        first = flow(random_grid_function(rng, 64))
        second = flow(random_grid_function(rng, 64))
        assert not np.array_equal(first.samples, second.samples)
        ref = loop_transport(GridFunction(second.samples[0]), 0.9, second.times)
        assert np.abs(second.samples - ref).max() <= 1e-13

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("mu", [INF, 4.0])
    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_block_time_norms_match_brute_force(self, n, mu, kind):
        bank = build_filters(n)
        if kind == "transport":
            u0 = random_grid_function(np.random.default_rng(n), n, decay=0.5)
            traj = transport_flow(u0, 1.3, transport_cfg(grid_size=n, time_steps=24, mu=mu))
        else:
            u0 = sinusoid_datum(n, 0.1, 0.05)
            traj = burgers_flow(u0, burgers_cfg(grid_size=n, time_steps=24, mu=mu))
        for s in (0.0, 1.5):
            got = block_time_norms(traj, bank, s)
            ref = brute_block_time_norms(traj, bank, s)
            # blocks at the rounding floor of a band-limited Burgers state are
            # compared absolutely, against the largest block
            floor = 1e-12 * ref.max()
            assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * ref, floor))
            assert lmu_time_sobolev_norm(traj, s) == pytest.approx(
                max(sobolev_norm(state, s) for state in traj.states)
                if math.isinf(mu)
                else (
                    np.array([sobolev_norm(state, s) for state in traj.states]) ** mu
                    @ np.r_[0.5, np.ones(traj.times.size - 2), 0.5]
                    * traj.dt
                )
                ** (1.0 / mu),
                rel=1e-12,
            )

    def test_block_norms_reject_grid_mismatch(self, bank64, rng):
        traj = transport_flow(random_grid_function(rng, 32), 1.0, transport_cfg(grid_size=32))
        with pytest.raises(GridMismatchError):
            block_time_norms(traj, bank64)
        with pytest.raises(GridMismatchError):
            time_continuity_modulus(traj, 1.0, bank64).moduli


class TestStackedTrajectory:
    def make_pair(self, seed, n=16, m=5):
        r = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, m)
        samples = r.normal(size=(m, n))
        from_states = Trajectory(times, states=[GridFunction(row) for row in samples])
        from_array = Trajectory(times, samples=samples)
        return from_states, from_array

    def test_states_and_array_construction_agree(self):
        a, b = self.make_pair(1)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.times, b.times)
        assert a.grid_size == b.grid_size == 16
        assert all(x == y for x, y in zip(a.states, b.states))
        assert len(a.states) == 5 and a.states[-1] == GridFunction(b.samples[4])
        assert all(isinstance(x, GridFunction) for x in b.states[1:3])

    def test_arithmetic(self):
        a, b = self.make_pair(2)
        c, _ = self.make_pair(3)
        for got, expected in (
            (a + c, [x + y for x, y in zip(a.states, c.states)]),
            (a - c, [x - y for x, y in zip(a.states, c.states)]),
            (-b, [-x for x in b.states]),
        ):
            assert isinstance(got, Trajectory)
            assert all(x == y for x, y in zip(got.states, expected))
        with pytest.raises(ValueError):
            a + Trajectory(np.linspace(0.0, 2.0, 5), samples=np.zeros((5, 16)))
        with pytest.raises(GridMismatchError):
            a + Trajectory(a.times, samples=np.zeros((5, 32)))

    def test_read_only_and_detached(self):
        samples = np.zeros((3, 8))
        traj = Trajectory(np.linspace(0.0, 1.0, 3), samples=samples)
        samples[0, 0] = 1.0  # the caller's array is copied, not adopted
        assert traj.samples[0, 0] == 0.0
        with pytest.raises(ValueError):
            traj.samples[0, 0] = 2.0
        with pytest.raises(ValueError):
            traj.times[0] = 2.0
        with pytest.raises(AttributeError):
            traj.samples = np.ones((3, 8))
        with pytest.raises(AttributeError):
            traj.mu = 3.0

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
        with pytest.raises(ValueError):
            Trajectory(np.linspace(0.0, 1.0, 3), samples=bad)

    def test_needs_exactly_one_source(self):
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            Trajectory(times)
        with pytest.raises(ValueError):
            Trajectory(times, states=[GridFunction.zeros(8)] * 3, samples=np.zeros((3, 8)))
        with pytest.raises(ValueError):
            Trajectory(times, states=[GridFunction.zeros(8), GridFunction.zeros(16), GridFunction.zeros(8)])
        with pytest.raises(ValueError):
            Trajectory(times, samples=np.zeros((3, 8)), mu=1.0)

    def test_grid_space_rejects_trajectory_by_kind(self):
        traj, _ = self.make_pair(4)
        with pytest.raises(KindMismatchError):
            eval_pseudo_norm(grid_l2_space(16), traj)

    def test_kind_check_builds_no_states(self, monkeypatch):
        import besovflow.flows as flows_mod

        traj, _ = self.make_pair(5)
        built = []
        monkeypatch.setattr(flows_mod, "GridFunction", lambda v: built.append(v))
        space = PseudoNormedSpace(
            label="sup-abs",
            eval=lambda t: float(np.abs(t.samples).max()),
            element_kind="time_trajectory",
        )
        assert eval_pseudo_norm(space, traj) > 0.0
        assert built == []


class TestFullPipeline:
    def test_transport_constants_stable_under_sample_growth(self, bank64, rng):
        data = [random_grid_function(rng, 64, max_mode=12, decay=2.0) for _ in range(8)]
        family = [decompose(u, bank64) for u in data]
        radius = 2.0 * max(dyadic_norm(f, (2.0, 2.0)) for f in family)
        cfg = transport_cfg(ball_radius=radius)
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank64)
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
        radius = 2.0 * max(dyadic_norm(f, (2.0, 2.0)) for f in family)
        cfg = burgers_cfg(grid_size=128, ball_radius=radius)
        adapter = flow_as_sequence_map(make_flow(cfg), cfg, bank)
        pairs = [
            (family[i], family[j]) for i in range(len(family)) for j in range(i)
        ]
        half = estimate_constants(adapter, pairs[: len(pairs) // 2])
        full = estimate_constants(adapter, pairs)
        assert 0.5 <= half.C0_hat / full.C0_hat <= 1.0

        probe = family[0]
        pairs += [
            (truncate(probe, n + 1), truncate(probe, n))
            for n in range(probe.support - 1)
        ]
        checked = estimate_constants(adapter, pairs).inflated(1.1)
        conv = convergence_report(adapter, probe, checked, range(probe.support + 1))
        for row in conv.rows:
            assert row.actual <= row.bound * (1 + 1e-9)


class TestTrajectoryPlumbing:
    def test_serialization_round_trip(self, tmp_path, rng):
        u0 = random_grid_function(rng, 64)
        traj = transport_flow(u0, 1.0, transport_cfg(time_steps=8))
        save_trajectory(tmp_path / "traj", traj, "transport", "abc123")
        loaded = load_trajectory(tmp_path / "traj")
        assert np.allclose(loaded.times, traj.times)
        assert all(a == b for a, b in zip(loaded.states, traj.states))
        assert math.isinf(loaded.mu)

    def test_uniform_times_required(self):
        states = tuple(GridFunction.zeros(8) for _ in range(3))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.1, 0.5]), states=states)

    def test_trajectory_space_is_lawful(self, rng):
        space = trajectory_sup_l2_space(16, 4)

        def sampler(r):
            times = np.linspace(0.0, 1.0, 5)
            return Trajectory(
                times=times,
                states=tuple(GridFunction(r.normal(size=16)) for _ in times),
            )

        report = axiom_probe(space, sampler, 50, rng)
        assert report.passed
