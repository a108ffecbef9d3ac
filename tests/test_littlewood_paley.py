import functools
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovflow.dyadic import DyadicSequence, dyadic_norm
from besovflow.littlewood_paley import (
    GRID_MAGIC,
    GridFunction,
    GridMismatchError,
    almost_orthogonality,
    band_profile,
    besov_norm,
    build_filters,
    decompose,
    frequencies,
    grid_l2_norm,
    grid_l2_space,
    load_grid_function,
    lp_norm,
    partition_of_unity,
    random_grid_function,
    reconstruct,
    reconstruction_stability_ratio,
    save_grid_function,
    smooth_cutoff,
    sobolev_norm,
    _GL_NODES,
    _GL_WEIGHTS,
    _power_law_scales,
    _weighted_energy,
)
from conftest import bessel_potential, write_grid_csv

TAU = 2.0 * math.pi


class TestGridFunction:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(12))
        with pytest.raises(ValueError):
            GridFunction(np.zeros(4))

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([math.nan] + [0.0] * 7))

    def test_immutability(self):
        u = GridFunction(np.ones(8))
        with pytest.raises(ValueError):
            u.values[0] = 2.0


class TestFilterProfiles:
    def test_low_pass_plateau_and_support(self):
        assert smooth_cutoff(0.0) == 1.0
        assert smooth_cutoff(0.75) == 1.0
        assert smooth_cutoff(1.0) == 0.0
        assert smooth_cutoff(2.5) == 0.0
        mid = smooth_cutoff(0.875)
        assert 0.0 < mid < 1.0
        # symmetric and monotone through the transition band
        assert smooth_cutoff(-0.875) == mid
        samples = smooth_cutoff(np.linspace(0.74, 1.01, 200))
        assert np.all(np.diff(samples) <= 1e-12)
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_gauss_legendre_table_is_leggauss_64(self):
        # the literal half table, mirrored, is numpy's 64-node rule bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(64)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()
        assert not (_GL_NODES.flags.writeable or _GL_WEIGHTS.flags.writeable)

    def test_cutoff_keeps_scalar_and_array_shapes(self):
        assert type(smooth_cutoff(0.875)) is float
        assert type(smooth_cutoff(2)) is float
        assert np.shape(smooth_cutoff(np.array(0.875))) == ()
        grid = np.linspace(-1.2, 1.2, 35).reshape(5, 7)
        values = smooth_cutoff(grid)
        assert values.shape == (5, 7)
        expected = [[smooth_cutoff(float(x)) for x in row] for row in grid]
        assert np.array_equal(values, np.array(expected))

    def test_radial_profiles_match_direct_evaluation(self, bank64):
        radial = np.arange(33, dtype=float)
        assert bank64.multipliers.shape == bank64.fat_multipliers.shape == (7, 33)
        assert np.array_equal(bank64.multipliers[0], smooth_cutoff(radial))
        assert np.array_equal(bank64.fat_multipliers[0], smooth_cutoff(radial / 2.0))
        for j in range(1, bank64.j_max + 1):
            assert np.array_equal(bank64.multipliers[j], band_profile(radial / 2.0 ** (j - 1)))
            assert np.array_equal(
                bank64.fat_multipliers[j],
                smooth_cutoff(radial / 2.0 ** (j + 1)) - smooth_cutoff(radial / 2.0 ** (j - 3)),
            )

    def test_bank_arrays_read_only(self, bank64):
        for name in ("multipliers", "fat_multipliers"):
            array = getattr(bank64, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_band_profile_support(self):
        assert band_profile(0.0) == 0.0
        assert band_profile(0.5) == 0.0
        assert band_profile(1.0) == 1.0
        assert band_profile(2.0) == 0.0
        assert band_profile(2.5) == 0.0
        xs = np.linspace(-2.5, 2.5, 501)
        values = band_profile(xs)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(values[np.abs(xs) < 0.75] == 0.0)

    def test_bank_invariants_n256(self, bank256):
        part = partition_of_unity(bank256)
        assert np.abs(part - 1.0).max() <= 1e-12
        ao = almost_orthogonality(bank256)
        assert ao.min() >= 1.0 / 3.0 - 1e-12
        assert ao.max() <= 1.0 + 1e-12

    def test_fattened_profiles_cover(self, bank256):
        # psi~ psi = psi and phi~ phi = phi pointwise on the frequency grid
        assert np.allclose(
            bank256.fat_multipliers * bank256.multipliers, bank256.multipliers,
            atol=0.0,
        )

    def test_ao_at_unit_frequency(self, bank256):
        n = bank256.grid_size
        index = 1  # the slot of xi = 1
        value = almost_orthogonality(bank256)[index]
        assert 1.0 / 3.0 <= value <= 1.0

    def test_band_vanishes_at_zero_every_scale(self, bank256):
        for j in range(1, bank256.j_max + 1):
            assert bank256.multipliers[j][0] == 0.0

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            build_filters(48)


class TestDecomposeReconstruct:
    def test_constant_lives_in_block_zero(self, bank64):
        u = GridFunction(np.ones(64))
        f = decompose(u, bank64)
        assert np.allclose(f.blocks[0], 1.0, atol=1e-14)
        for block in f.blocks[1:]:
            assert np.abs(block).max() <= 1e-14

    def test_pure_mode_hits_adjacent_blocks(self, bank64):
        u = GridFunction.from_function(lambda x: np.cos(8 * x), 64)
        f = decompose(u, bank64)
        # expected blocks: those j with band(2^{-(j-1)} * 8) != 0
        expected = {
            j
            for j in range(1, bank64.j_max + 1)
            if band_profile(8.0 * 2.0 ** (-(j - 1))) > 0.0
        }
        active = {
            j for j, b in enumerate(f.blocks) if np.abs(b).max() > 1e-12
        }
        assert active == expected
        assert len(expected) <= 2
        assert expected == {4}  # band(8/8) = 1 makes block 4 the only carrier

    def test_zero_function(self, bank64):
        f = decompose(GridFunction(np.zeros(64)), bank64)
        assert all(np.abs(b).max() == 0.0 for b in f.blocks)
        assert np.array_equal(reconstruct(f, bank64).values, np.zeros(64))

    def test_blocks_sum_to_function(self, bank64, rng):
        u = random_grid_function(rng, 64)
        f = decompose(u, bank64)
        total = np.sum(f.blocks, axis=0)
        assert np.abs(total - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_round_trip_identity(self, bank64, rng):
        for _ in range(100):
            u = random_grid_function(rng, 64)
            v = reconstruct(decompose(u, bank64), bank64)
            scale = np.abs(u.values).max()
            assert np.abs(v.values - u.values).max() <= 1e-10 * scale

    def test_round_trip_block_growth_is_bounded(self, bank64):
        u = GridFunction.from_function(lambda x: np.cos(8 * x), 64)
        for s in (0.0, 1.0, 2.0):
            (ratio,) = reconstruction_stability_ratio([u], bank64, s)
            assert math.isfinite(ratio)
            assert ratio >= 1.0 - 1e-12

    def test_grid_mismatch(self, bank64):
        with pytest.raises(GridMismatchError):
            decompose(GridFunction(np.zeros(128)), bank64)

    def test_support_overflow_rejected(self, bank64):
        space = grid_l2_space(64)
        blocks = np.zeros((bank64.j_max + 2, 64))
        with pytest.raises(ValueError):
            reconstruct(DyadicSequence(space, blocks), bank64)


@functools.lru_cache(maxsize=None)
def cached_bank(n):
    return build_filters(n)


class TestIdentitiesOverGridRange:
    """The filter identities at every grid size N = 2^3 .. 2^12."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(exponent=st.integers(3, 12))
    def test_partition_of_unity(self, exponent):
        bank = cached_bank(2**exponent)
        assert np.abs(partition_of_unity(bank) - 1.0).max() <= 1e-12

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        exponent=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
        decay=st.floats(0.0, 2.0),
        nyquist_only=st.booleans(),
    )
    def test_round_trip(self, exponent, seed, decay, nyquist_only):
        n = 2**exponent
        bank = cached_bank(n)
        rng = np.random.default_rng(seed)
        if nyquist_only:
            # a cos(N x / 2) at the nodes: only the Nyquist slot is set
            u = GridFunction(rng.standard_normal() * (-1.0) ** np.arange(n))
        else:
            u = random_grid_function(rng, n, max_mode=n // 2, decay=decay)
        v = reconstruct(decompose(u, bank), bank)
        assert grid_l2_norm(v.values - u.values) <= 1e-10 * grid_l2_norm(u)


def loop_decompose(u, bank):
    """Per-row reference: one inverse real FFT per block multiplier."""
    half = np.fft.rfft(u.values)
    return [np.fft.irfft(half * row, n=bank.grid_size) for row in bank.multipliers]


def loop_reconstruct(f, bank):
    """Per-row reference: accumulate each block's filtered half spectrum in turn."""
    total = np.zeros(bank.grid_size // 2 + 1, dtype=complex)
    for j, row in enumerate(f.blocks):
        total += np.fft.rfft(row) * bank.fat_multipliers[j]
    return np.fft.irfft(total, n=bank.grid_size)


class TestBatchedBlocks:
    """The batched decompose/reconstruct give the per-row loop's exact bits."""

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_decompose_matches_row_loop(self, n):
        rng = np.random.default_rng(n)
        bank = build_filters(n)
        u = random_grid_function(rng, n, max_mode=n // 2)
        f = decompose(u, bank)
        assert len(f.blocks) == bank.j_max + 1
        for block, ref in zip(f.blocks, loop_decompose(u, bank)):
            assert np.array_equal(block, ref)

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_reconstruct_matches_row_loop(self, n):
        rng = np.random.default_rng(n + 7)
        bank = build_filters(n)
        f = decompose(random_grid_function(rng, n, max_mode=n // 2), bank)
        for support in (1, bank.j_max // 2 + 1, bank.j_max + 1):
            g = DyadicSequence(f.base, f.blocks[:support])
            assert np.array_equal(reconstruct(g, bank).values, loop_reconstruct(g, bank))


def grid_round_trip_ratio(u, bank, s):
    """The stability ratio from grid blocks: decompose(reconstruct(decompose(u)))."""
    f = decompose(u, bank)
    round_trip = decompose(reconstruct(f, bank), bank)
    denom, value = dyadic_norm(np.array([f.block_norms, round_trip.block_norms]), (s, 1.0))
    return value / denom


class TestReconstructionStabilityRatio:
    """The half-spectrum ratio against the round trip on grid blocks."""

    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    @pytest.mark.parametrize("data", ["random", "nyquist"])
    def test_matches_grid_round_trip(self, n, data):
        bank = build_filters(n)
        if data == "random":
            u = random_grid_function(np.random.default_rng(n), n, max_mode=n // 2)
        else:
            u = GridFunction.from_function(lambda x: np.cos(n // 2 * x), n)
        for s in (-1.0, 0.0, 1.0, 2.0):
            (ratio,) = reconstruction_stability_ratio([u], bank, s)
            assert ratio == pytest.approx(grid_round_trip_ratio(u, bank, s), rel=1e-15, abs=0.0)

    def test_amplitude_does_not_matter(self, bank64, rng):
        # |u^|^2 of the larger amplitude leaves float range unless rescaled
        u = random_grid_function(rng, 64)
        for s in (0.0, 2.0):
            ratio = reconstruction_stability_ratio([u], bank64, s)
            for scale in (1e300, 2.0**-1000):
                scaled = GridFunction(u.values * scale)
                assert reconstruction_stability_ratio([scaled], bank64, s) == ratio

    def test_zero_function(self, bank64):
        assert reconstruction_stability_ratio([GridFunction(np.zeros(64))], bank64, 1.0) == [0.0]

    def test_grid_mismatch(self, bank64):
        with pytest.raises(GridMismatchError):
            reconstruction_stability_ratio([GridFunction(np.zeros(128))], bank64, 1.0)

    def test_iterable_gives_each_function_its_own_ratio(self, bank64, rng):
        data = [random_grid_function(rng, 64) for _ in range(3)] + [GridFunction(np.zeros(64))]
        for s in (0.0, 2.0):
            ratios = reconstruction_stability_ratio(iter(data), bank64, s)
            assert ratios == [reconstruction_stability_ratio([u], bank64, s)[0] for u in data]
        assert reconstruction_stability_ratio([], bank64, 1.0) == []
        with pytest.raises(GridMismatchError):
            reconstruction_stability_ratio([data[0], GridFunction(np.zeros(128))], bank64, 1.0)


def loop_random_grid_function(rng, grid_size, max_mode=None, decay=1.0):
    """The per-mode draw loop that random_grid_function vectorizes."""
    half = grid_size // 2
    top = half - 1 if max_mode is None else min(int(max_mode), half)
    half_spectrum = np.zeros(half + 1, dtype=complex)
    half_spectrum[0] = rng.standard_normal()
    for k in range(1, top + 1):
        scale = (1.0 + k) ** (-decay)
        if k == half:
            half_spectrum[k] = rng.standard_normal() * scale
        else:
            half_spectrum[k] = (
                rng.standard_normal() + 1j * rng.standard_normal()
            ) * scale
    return np.fft.irfft(half_spectrum, n=grid_size) * grid_size


class TestRandomGridFunction:
    @pytest.mark.parametrize("n", [8, 64, 1024, 16384])
    @pytest.mark.parametrize(
        "max_mode,decay", [(None, 1.0), (0, 1.0), (3, 2.5), ("half", 1.0), ("over", 0.7)]
    )
    def test_matches_per_mode_loop(self, n, max_mode, decay):
        mode = {"half": n // 2, "over": 4 * n}.get(max_mode, max_mode)
        got = random_grid_function(np.random.default_rng(5), n, mode, decay)
        ref = loop_random_grid_function(np.random.default_rng(5), n, mode, decay)
        assert np.array_equal(got.values, ref)

    def test_scales_are_cached_and_read_only(self):
        scales = _power_law_scales(127, 1.0)
        assert _power_law_scales(127, 1.0) is scales
        assert not scales.flags.writeable
        with pytest.raises(ValueError):
            scales[0] = 0.0
        # draws that read the cached scales keep the loop's bits
        for seed in (1, 2, 3):
            got = random_grid_function(np.random.default_rng(seed), 256)
            ref = loop_random_grid_function(np.random.default_rng(seed), 256)
            assert np.array_equal(got.values, ref)

    def test_stream_position_after_draw(self):
        # a following draw sees the same generator state as after the loop
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        random_grid_function(a, 256, max_mode=128)
        loop_random_grid_function(b, 256, max_mode=128)
        assert a.standard_normal() == b.standard_normal()


class TestBlockRows:
    """Row j of decompose(u) is the block Delta_j u."""

    def test_low_block_keeps_constant(self, bank64):
        blocks = decompose(GridFunction(np.full(64, 2.5)), bank64).blocks
        assert np.allclose(blocks[0], 2.5, atol=1e-14)
        assert np.abs(blocks[1:]).max() <= 1e-14

    def test_l2_contraction(self, bank64, rng):
        # every multiplier is bounded by 1, so every block is an L2 contraction
        for _ in range(100):
            u = random_grid_function(rng, 64)
            norms = grid_l2_norm(decompose(u, bank64).blocks)
            assert np.all(norms <= grid_l2_norm(u) * (1 + 1e-12))

    def test_sobolev_contraction(self, bank64, rng):
        for _ in range(50):
            u = random_grid_function(rng, 64)
            r = float(rng.uniform(-2, 2))
            bound = sobolev_norm(u, r) * (1 + 1e-12)
            for row in decompose(u, bank64).blocks:
                assert sobolev_norm(GridFunction(row), r) <= bound


def complex_plancherel_norm(values, s):
    """sqrt(TAU sum_xi (1 + xi^2)^s |c_xi|^2) over all N slots of the complex FFT."""
    n = values.size
    freqs = np.rint(np.fft.fftfreq(n, 1.0 / n))
    coeffs = np.fft.fft(values) / n
    return math.sqrt(TAU * float(np.sum((1.0 + freqs**2) ** s * np.abs(coeffs) ** 2)))


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm(GridFunction(np.zeros(16)), 2.0) == 0.0

    def test_order_zero_is_l2(self, rng):
        for _ in range(20):
            u = random_grid_function(rng, 32)
            assert sobolev_norm(u, 0.0) == pytest.approx(grid_l2_norm(u), rel=1e-12)

    def test_single_mode_weight(self):
        u = GridFunction.from_function(lambda x: np.cos(4 * x), 64)
        scale = 1.0 / grid_l2_norm(u)
        unit = GridFunction(scale * u.values)
        # one-term Plancherel sum: a unit-L2 mode at |xi| = 4, s = 1
        assert sobolev_norm(unit, 1.0) == pytest.approx(math.sqrt(17.0), rel=1e-12)
        partner = GridFunction.from_function(lambda x: np.sin(4 * x), 64)
        partner = GridFunction((1.0 / grid_l2_norm(partner)) * partner.values)
        assert sobolev_norm(partner, 1.0) == pytest.approx(math.sqrt(17.0), rel=1e-12)

    def test_bessel_multiplier_consistency(self, rng):
        for s in (-1.0, 0.5, 2.0):
            u = random_grid_function(rng, 64)
            assert grid_l2_norm(bessel_potential(u, s)) == pytest.approx(
                sobolev_norm(u, s), rel=1e-12
            )

    @pytest.mark.parametrize("n", [2**e for e in range(3, 13)])
    def test_matches_complex_fft_plancherel_sum(self, n):
        # the half-spectrum sum counts each interior mode for itself and its
        # mirror; the Nyquist mode is set, and counts once
        u = random_grid_function(np.random.default_rng(n), n, max_mode=n // 2)
        for s in (-1.5, 0.0, 0.5, 2.0, 3.0):
            assert sobolev_norm(u, s) == pytest.approx(
                complex_plancherel_norm(u.values, s), rel=1e-13, abs=0.0
            )


def dense_weighted_energy(spectra, weights):
    """The dense reference: every weight row contracted with every mode."""
    n = 2 * (weights.shape[-1] - 1)
    folded = weights / n**2
    folded[..., 1:-1] *= 2.0
    power = np.abs(spectra)
    power *= power
    return TAU * np.einsum("...k,tk->...t", folded, power)


# the largest difference of a banded block energy from the dense sum,
# relative to the dense value; both sum nonnegative terms in another order
BANDED_RTOL = 64 * np.finfo(float).eps


def random_spectra(rng, n, count):
    """``count`` random finite half spectra of an n-point grid, each at its own scale."""
    shape = (count, n // 2 + 1)
    spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return spectra * np.exp2(rng.uniform(-30.0, 30.0, (count, 1)))


class TestBandedEnergy:
    """A 2-D weight matrix is summed row by row over each row's nonzero span."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        exponent=st.integers(3, 14),
        s=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
    )
    def test_bank_rows_match_the_dense_sum(self, exponent, s, seed, count):
        n = 2**exponent
        weights = cached_bank(n).multipliers ** 2 * (1.0 + frequencies(n) ** 2) ** s
        spectra = random_spectra(np.random.default_rng(seed), n, count)
        got = _weighted_energy(spectra, weights)
        ref = dense_weighted_energy(spectra, weights)
        assert got.shape == ref.shape == (weights.shape[0], count)
        assert np.all(np.abs(got - ref) <= BANDED_RTOL * ref)

    @pytest.mark.parametrize("n", [8, 64, 16384])
    def test_fold_edges_and_empty_rows(self, n):
        # rows: empty; mode 0 only; mode 1 only; the Nyquist mode only; a
        # span over mode 0 .. 2; a span up to the Nyquist mode with a zero
        # inside it.  A single mode is one product, so it is exact.
        half = n // 2
        weights = np.zeros((6, half + 1))
        weights[1, 0] = weights[2, 1] = weights[3, half] = 1.0
        weights[4, :3] = (0.5, 2.0, 3.0)
        weights[5, half - 3 :] = (1.5, 0.0, 2.5, 4.0)
        spectra = random_spectra(np.random.default_rng(n), n, 3)
        got = _weighted_energy(spectra, weights)
        power = np.abs(spectra) ** 2
        assert np.array_equal(got[0], np.zeros(3))
        assert np.array_equal(got[1], TAU * (power[:, 0] / n**2))
        assert np.array_equal(got[2], TAU * (2.0 * power[:, 1] / n**2))
        assert np.array_equal(got[3], TAU * (power[:, half] / n**2))
        ref = dense_weighted_energy(spectra, weights)
        assert np.all(np.abs(got[4:] - ref[4:]) <= BANDED_RTOL * ref[4:])

    @pytest.mark.parametrize("n", [8, 1024, 16384])
    def test_one_dimensional_weights_keep_the_dense_bits(self, n):
        spectra = random_spectra(np.random.default_rng(n + 1), n, 5)
        for s in (-2.0, 0.0, 1.5, 3.0):
            weights = (1.0 + frequencies(n) ** 2) ** s
            got = _weighted_energy(spectra, weights)
            assert np.array_equal(got, dense_weighted_energy(spectra, weights))


class TestBlockArrayNorms:
    """lp_norm and grid_l2_norm reduce a (K+1, N) block array row by row."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("grid_size", [8, 64, 1024, 16384])
    def test_lp_rows_bit_equal_to_per_row_calls(self, rng, grid_size, p):
        blocks = rng.normal(size=(15, grid_size)) * np.exp2(rng.uniform(-20, 20, (15, 1)))
        norms = lp_norm(blocks, p)
        assert norms.shape == (15,)
        assert np.array_equal(norms, [lp_norm(GridFunction(row), p) for row in blocks])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_in_range_rows_keep_their_bits(self, rng, p):
        # the reductions as written before the rescaled path existed, with numpy's power
        blocks = rng.normal(size=(15, 256)) * np.exp2(rng.uniform(-60, 60, (15, 1)))
        sums = TAU / 256 * np.sum(np.abs(blocks) ** p, axis=-1)
        assert np.array_equal(lp_norm(blocks, p), np.power(sums, 1.0 / p))
        plain = np.sqrt(TAU / 256 * np.sum(blocks**2, axis=-1))
        assert np.array_equal(grid_l2_norm(blocks), plain)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_rows_whose_power_sum_leaves_float_range(self, scale):
        x = np.arange(64) * (TAU / 64)
        u = GridFunction(scale * np.sin(3.0 * x))
        expected = scale * math.sqrt(math.pi)  # the L2 norm of scale sin(3x)
        assert grid_l2_norm(u) == pytest.approx(expected, rel=1e-14, abs=0.0)
        for p in (1.5, 2.0):
            unit = lp_norm(GridFunction(np.sin(3.0 * x)), p)
            # 1/p is rounded, so the root of a sum near 1e+-300 moves by ~|ln sum| ulp
            assert lp_norm(u, p) == pytest.approx(scale * unit, rel=1e-13, abs=0.0)
        rows = np.vstack([u.values, np.zeros(64), np.sin(x), np.full(64, 1e308)])
        norms = grid_l2_norm(rows)
        assert norms[0] == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert norms[1] == 0.0 and norms[2] == grid_l2_norm(GridFunction(np.sin(x)))
        assert norms[3] == math.inf  # about 2.5e308: the norm itself leaves float range

    def test_tiny_data_decomposes_to_nonzero_blocks(self, bank64):
        x = np.arange(64) * (TAU / 64)
        f = decompose(GridFunction(1e-200 * np.sin(3.0 * x)), bank64)
        assert f.block_norms.max() > 0.0
        unit = decompose(GridFunction(np.sin(3.0 * x)), bank64)
        assert f.block_norms[2] == pytest.approx(1e-200 * unit.block_norms[2], rel=1e-12, abs=0.0)
        assert dyadic_norm(f.block_norms[None], (2.0, 2.0))[0] > 0.0

    def test_one_grid_function_gives_a_float(self, rng):
        u = random_grid_function(rng, 64)
        assert type(lp_norm(u, 3.0)) is float
        assert type(grid_l2_norm(u)) is float

    def test_besov_blocks_match_per_block_loop(self, bank64, rng):
        u = random_grid_function(rng, 64)
        blocks = decompose(u, bank64).blocks
        for p in (1.0, 2.0, math.inf):
            block_lp = np.array([lp_norm(block, p) for block in blocks])
            weighted = np.exp2(1.5 * np.arange(block_lp.size)) * block_lp
            assert besov_norm(u, 1.5, p, 2.0, bank64) == float(np.sum(weighted**2.0) ** 0.5)


class TestBesovNorm:
    def test_zero(self, bank64):
        assert besov_norm(GridFunction(np.zeros(64)), 1.0, 2.0, 2.0, bank64) == 0.0

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_in_range_norm_survives_over_and_underflow(self, bank64, scale, p, q):
        # the l^q sum of 1e200 sin 3x's weighted blocks leaves float range,
        # 1e-200's falls below it; the norm itself is in range either way
        u = GridFunction.from_function(lambda x: np.sin(3 * x), 64)
        unit = besov_norm(u, 1.0, p, q, bank64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = besov_norm(GridFunction(scale * u.values), 1.0, p, q, bank64)
        assert scaled == pytest.approx(scale * unit, rel=1e-12, abs=0.0)

    def test_constant_single_block(self, bank64):
        u = GridFunction(np.ones(64))
        for s in (-1.0, 0.0, 2.0):
            for q in (1.0, 2.0, math.inf):
                assert besov_norm(u, s, 2.0, q, bank64) == pytest.approx(
                    lp_norm(u, 2.0), rel=1e-12
                )

    def test_comparable_to_sobolev_at_p2_q2(self, bank64, rng):
        # bracket constants from the multiplier supports: on block j the
        # weight (1+xi^2)^s / 4^{js} stays within measured extremes, and the
        # almost-orthogonality window contributes [1/3, 1]
        s = 1.0
        freqs = frequencies(64)
        lower_factors, upper_factors = [], []
        for j, row in enumerate(bank64.multipliers):
            support = row > 0.0
            ratio = (1.0 + freqs[support] ** 2) ** s / 4.0 ** (j * s)
            lower_factors.append(ratio.min())
            upper_factors.append(ratio.max())
        lo = math.sqrt(min(lower_factors) / 3.0)
        hi = math.sqrt(max(upper_factors))
        for _ in range(50):
            u = random_grid_function(rng, 64)
            ratio = sobolev_norm(u, s) / besov_norm(u, s, 2.0, 2.0, bank64)
            assert lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)


# (file name, content, what follows the name in the rejection message)
BAD_GRID_FILES = [
    ("word.csv", "index,value\n0,1.0\n1,abc\n", ":3:"),
    ("three.csv", "0,1.0\n1,2,3\n", ":2:"),
    ("one.csv", "0,1.0\n\n1\n", ":3:"),
    ("three_rows.csv", "0,1.0\n1,2.0\n2,3.0\n", ":"),
    ("nan.csv", "".join(f"{i},{'nan' if i == 5 else i}\n" for i in range(8)), ":"),
    # only the first non-blank line may be a header
    ("late_header.csv", "".join(f"{i},{i}\n" for i in range(8)) + "3.5,99\nx,1\n", ":9:"),
    ("two_headers.csv", "\nindex,value\nx,y\n" + "".join(f"{i},{i}\n" for i in range(8)), ":3:"),
    ("three_rows.gfn", GRID_MAGIC + struct.pack("<Q3d", 3, 0.0, 1.0, 2.0), ":"),
    ("inf.gfn", GRID_MAGIC + struct.pack("<Q8d", 8, *[math.inf] * 8), ":"),
]


class TestGridFileFormats:
    def test_binary_round_trip(self, tmp_path, rng):
        u = random_grid_function(rng, 32)
        path = tmp_path / "u.gfn"
        save_grid_function(path, u)
        assert np.array_equal(load_grid_function(path).values, u.values)

    def test_csv_round_trip(self, tmp_path, rng):
        u = random_grid_function(rng, 32)
        path = tmp_path / "u.csv"
        write_grid_csv(path, u)
        v = load_grid_function(path)
        assert np.abs(v.values - u.values).max() <= 1e-16 * np.abs(u.values).max()

    @pytest.mark.parametrize("before", ["", "\n  \n"])
    def test_csv_header_tolerated(self, tmp_path, before):
        path = tmp_path / "u.csv"
        lines = ["index,value"] + [f"{i},{float(i)}" for i in range(8)]
        path.write_text(before + "\n".join(lines) + "\n")
        u = load_grid_function(path)
        assert np.allclose(u.values, np.arange(8.0))

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.gfn"
        with open(path, "wb") as fh:
            fh.write(b"GFN1\x00\x00\x00\x00")
            fh.write((32).to_bytes(8, "little"))
            fh.write(b"\x00" * 64)  # only 8 of 32 samples
        with pytest.raises(ValueError):
            load_grid_function(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "long.gfn"
        save_grid_function(path, random_grid_function(rng, 32))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="long.gfn"):
            load_grid_function(path)

    def test_csv_missing_index_rejected(self, tmp_path):
        # indices 0..8 without 3: eight rows, but not the indices 0..7
        path = tmp_path / "gap.csv"
        path.write_text("".join(f"{i},{float(i)}\n" for i in range(9) if i != 3))
        with pytest.raises(ValueError, match="gap.csv"):
            load_grid_function(path)

    def test_csv_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = [f"{i},{float(i)}" for i in range(8)] + ["5,-1.0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="dup.csv"):
            load_grid_function(path)

    def test_csv_rows_in_any_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("".join(f"{i},{float(i)}\n" for i in (3, 0, 7, 1, 6, 2, 5, 4)))
        assert np.array_equal(load_grid_function(path).values, np.arange(8.0))

    def test_csv_samples_are_the_float_literals(self, tmp_path):
        # CRLF line ends, blank and whitespace-only lines between rows, and
        # spaces around fields; each sample has the bits of float(text)
        texts = ["1e-300", "-0.0", "2.5E+3", " .5", "0.1", "-7", "1.", "+3.25"]
        texts += [f"{v:.17g}" for v in np.random.default_rng(4).standard_normal(56).tolist()]
        rows = [f"{i}, {t} " for i, t in enumerate(texts)]
        content = "index,value\r\n" + "\r\n \t\r\n\r\n".join(rows) + "\r\n"
        path = tmp_path / "spaced.csv"
        path.write_bytes(content.encode("utf-8"))
        got, expected = load_grid_function(path).values, [float(t) for t in texts]
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,1.0 # x", "'1.0 # x' is not a number"),
            ("3,1_0", "'1_0' is not a number"),
            ("1_0,1", "'1_0' is not an integer index"),
            ("3,\u0663", "'\u0663' is not a number"),
            ("3.0,1", "'3.0' is not an integer index"),
            ("2.9,1", "'2.9' is not an integer index"),
            ("1e1,1", "'1e1' is not an integer index"),
            ("99999999999999999999,1", "index '99999999999999999999' is out of range"),
        ],
    )
    def test_csv_fields_are_plain_ascii_literals(self, tmp_path, row, message):
        # no comments, digit separators, non-ASCII digits or float indices,
        # and an index within int64; line 5 is the bad one
        lines = ["index,value", "0,0", "1,1", "2,2", row] + [f"{i},{i}" for i in range(4, 8)]
        path = tmp_path / "fields.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"fields.csv:5: {message}")):
            load_grid_function(path)

    @pytest.mark.parametrize("index", ["1_0", "\u0663"])
    def test_first_line_with_an_int_index_is_data(self, tmp_path, index):
        # int() reads these, so the line is no header; as data it is rejected
        lines = [f"{index},5"] + [f"{i},{i}" for i in range(8)]
        path = tmp_path / "first.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"first.csv:1: {index!r} is not")):
            load_grid_function(path)

    @pytest.mark.parametrize(
        "name, content, where", BAD_GRID_FILES, ids=[case[0] for case in BAD_GRID_FILES]
    )
    def test_every_rejection_names_the_file(self, tmp_path, name, content, where):
        # bad fields, a bad field count, a bad grid size and non-finite
        # samples name the file, and a bad CSV line also its number
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(name + where)):
            load_grid_function(path)
