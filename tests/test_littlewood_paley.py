import math

import numpy as np
import pytest

from besovflow.dyadic import DyadicSequence
from besovflow.littlewood_paley import (
    GridFunction,
    GridMismatchError,
    almost_orthogonality,
    apply_block,
    band_profile,
    besov_norm,
    bessel_potential,
    build_filters,
    decompose,
    grid_l2_norm,
    grid_l2_space,
    load_grid_function,
    lp_norm,
    partition_of_unity,
    random_grid_function,
    reconstruct,
    reconstruction_stability_ratio,
    save_grid_function,
    save_grid_function_csv,
    smooth_cutoff,
    sobolev_norm,
    spectrum,
)

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

    def test_arithmetic(self):
        u = GridFunction(np.ones(8))
        v = GridFunction(np.full(8, 2.0))
        assert np.allclose((u + v).values, 3.0)
        assert np.allclose((u - v).values, -1.0)
        assert np.allclose((3.0 * u).values, 3.0)


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
        assert np.array_equal(bank64.psi, smooth_cutoff(radial))
        assert np.array_equal(bank64.phi, band_profile(radial))
        assert np.array_equal(bank64.psi_fat, smooth_cutoff(radial / 2.0))
        assert np.array_equal(
            bank64.phi_fat, smooth_cutoff(radial / 4.0) - smooth_cutoff(4.0 * radial)
        )

    def test_bank_arrays_read_only(self, bank64):
        for name in ("psi", "phi", "psi_fat", "phi_fat", "multipliers", "fat_multipliers"):
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
        index = 1  # fft layout: slot of xi = +1
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
        assert np.allclose(f.entries[0].values, 1.0, atol=1e-14)
        for block in f.entries[1:]:
            assert np.abs(block.values).max() <= 1e-14

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
            j for j, b in enumerate(f.entries) if np.abs(b.values).max() > 1e-12
        }
        assert active == expected
        assert len(expected) <= 2
        assert expected == {4}  # band(8/8) = 1 makes block 4 the only carrier

    def test_zero_function(self, bank64):
        f = decompose(GridFunction.zeros(64), bank64)
        assert all(np.abs(b.values).max() == 0.0 for b in f.entries)
        assert reconstruct(f, bank64) == GridFunction.zeros(64)

    def test_blocks_sum_to_function(self, bank64, rng):
        u = random_grid_function(rng, 64)
        f = decompose(u, bank64)
        total = np.sum([b.values for b in f.entries], axis=0)
        assert np.abs(total - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_round_trip_identity(self, bank64, rng):
        for _ in range(100):
            u = random_grid_function(rng, 64)
            v = reconstruct(decompose(u, bank64), bank64)
            scale = np.abs(u.values).max()
            assert np.abs(v.values - u.values).max() <= 1e-10 * scale

    def test_round_trip_block_growth_is_bounded(self, bank64):
        u = GridFunction.from_function(lambda x: np.cos(8 * x), 64)
        f = decompose(u, bank64)
        for s in (0.0, 1.0, 2.0):
            ratio = reconstruction_stability_ratio(f, bank64, s)
            assert math.isfinite(ratio)
            assert ratio >= 1.0 - 1e-12

    def test_grid_mismatch(self, bank64):
        with pytest.raises(GridMismatchError):
            decompose(GridFunction.zeros(128), bank64)

    def test_support_overflow_rejected(self, bank64):
        space = grid_l2_space(64)
        blocks = tuple(GridFunction.zeros(64) for _ in range(bank64.j_max + 2))
        with pytest.raises(ValueError):
            reconstruct(DyadicSequence(space, blocks), bank64)


def loop_decompose(u, bank):
    """Per-row reference: one inverse FFT per block multiplier."""
    coeffs = np.fft.fft(u.values)
    return [np.fft.ifft(coeffs * row).real for row in bank.multipliers]


def loop_reconstruct(f, bank):
    """Per-row reference: accumulate each block's filtered spectrum in turn."""
    total = np.zeros(bank.grid_size, dtype=complex)
    for j, entry in enumerate(f.entries):
        total += np.fft.fft(entry.values) * bank.fat_multipliers[j]
    return np.fft.ifft(total).real


class TestBatchedBlocks:
    """The batched decompose/reconstruct give the per-row loop's exact bits."""

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_decompose_matches_row_loop(self, n):
        rng = np.random.default_rng(n)
        bank = build_filters(n)
        u = random_grid_function(rng, n, max_mode=n // 2)
        f = decompose(u, bank)
        assert len(f.entries) == bank.j_max + 1
        for block, ref in zip(f.entries, loop_decompose(u, bank)):
            assert np.array_equal(block.values, ref)

    @pytest.mark.parametrize("n", [2**e for e in range(3, 15)])
    def test_reconstruct_matches_row_loop(self, n):
        rng = np.random.default_rng(n + 7)
        bank = build_filters(n)
        f = decompose(random_grid_function(rng, n, max_mode=n // 2), bank)
        for support in (1, bank.j_max // 2 + 1, bank.j_max + 1):
            g = DyadicSequence(f.base, f.entries[:support])
            assert np.array_equal(reconstruct(g, bank).values, loop_reconstruct(g, bank))

    def test_empty_sequence_reconstructs_zero(self, bank64):
        empty = DyadicSequence(grid_l2_space(64), ())
        assert reconstruct(empty, bank64) == GridFunction.zeros(64)


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

    def test_stream_position_after_draw(self):
        # a following draw sees the same generator state as after the loop
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        random_grid_function(a, 256, max_mode=128)
        loop_random_grid_function(b, 256, max_mode=128)
        assert a.standard_normal() == b.standard_normal()


class TestApplyBlock:
    def test_low_block_keeps_constant(self, bank64):
        u = GridFunction(np.full(64, 2.5))
        assert np.allclose(apply_block(u, 0, bank64).values, 2.5, atol=1e-14)
        for j in range(1, bank64.j_max + 1):
            assert np.abs(apply_block(u, j, bank64).values).max() <= 1e-14

    def test_l2_contraction(self, bank64, rng):
        for _ in range(100):
            u = random_grid_function(rng, 64)
            j = int(rng.integers(0, bank64.j_max + 1))
            assert grid_l2_norm(apply_block(u, j, bank64)) <= grid_l2_norm(u) * (
                1 + 1e-12
            )

    def test_sobolev_contraction(self, bank64, rng):
        for _ in range(50):
            u = random_grid_function(rng, 64)
            j = int(rng.integers(0, bank64.j_max + 1))
            r = float(rng.uniform(-2, 2))
            assert sobolev_norm(apply_block(u, j, bank64), r) <= sobolev_norm(
                u, r
            ) * (1 + 1e-12)

    def test_index_range(self, bank64):
        with pytest.raises(ValueError):
            apply_block(GridFunction.zeros(64), bank64.j_max + 1, bank64)


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm(GridFunction.zeros(16), 2.0) == 0.0

    def test_order_zero_is_l2(self, rng):
        for _ in range(20):
            u = random_grid_function(rng, 32)
            assert sobolev_norm(u, 0.0) == pytest.approx(grid_l2_norm(u), rel=1e-12)

    def test_single_mode_weight(self):
        u = GridFunction.from_function(lambda x: np.cos(4 * x), 64)
        scale = 1.0 / grid_l2_norm(u)
        unit = scale * u
        # one-term Plancherel sum: a unit-L2 mode at |xi| = 4, s = 1
        assert sobolev_norm(unit, 1.0) == pytest.approx(math.sqrt(17.0), rel=1e-12)
        partner = GridFunction.from_function(lambda x: np.sin(4 * x), 64)
        partner = (1.0 / grid_l2_norm(partner)) * partner
        assert sobolev_norm(partner, 1.0) == pytest.approx(math.sqrt(17.0), rel=1e-12)

    def test_bessel_multiplier_consistency(self, rng):
        for s in (-1.0, 0.5, 2.0):
            u = random_grid_function(rng, 64)
            assert grid_l2_norm(bessel_potential(u, s)) == pytest.approx(
                sobolev_norm(u, s), rel=1e-12
            )

    def test_spectrum_hermitian(self, rng):
        u = random_grid_function(rng, 32)
        coeffs = spectrum(u)
        freqs = coeffs.frequencies
        for xi in range(1, 16):
            a = coeffs.coeffs[freqs == xi][0]
            b = coeffs.coeffs[freqs == -xi][0]
            assert a == pytest.approx(np.conj(b), abs=1e-14)


class TestBesovNorm:
    def test_zero(self, bank64):
        assert besov_norm(GridFunction.zeros(64), 1.0, 2.0, 2.0, bank64) == 0.0

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
        freqs = np.rint(np.fft.fftfreq(64, 1.0 / 64))
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


class TestGridFileFormats:
    def test_binary_round_trip(self, tmp_path, rng):
        u = random_grid_function(rng, 32)
        path = tmp_path / "u.gfn"
        save_grid_function(path, u)
        assert load_grid_function(path) == u

    def test_csv_round_trip(self, tmp_path, rng):
        u = random_grid_function(rng, 32)
        path = tmp_path / "u.csv"
        save_grid_function_csv(path, u)
        v = load_grid_function(path)
        assert np.abs(v.values - u.values).max() <= 1e-16 * np.abs(u.values).max()

    def test_csv_header_tolerated(self, tmp_path):
        path = tmp_path / "u.csv"
        lines = ["index,value"] + [f"{i},{float(i)}" for i in range(8)]
        path.write_text("\n".join(lines) + "\n")
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
