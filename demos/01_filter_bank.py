"""Build a dyadic filter bank and inspect its defining identities.

The bank consists of a smooth low-pass profile (flat on |xi| <= 3/4, gone
beyond |xi| >= 1) and its dyadic band dilations.  Two identities make every
later computation exact: the blocks telescope to a partition of unity on
the whole frequency grid, and the squared profiles stay pinched between
1/3 and 1 (almost orthogonality).
"""
import numpy as np

from besovflow.littlewood_paley import (
    almost_orthogonality,
    band_profile,
    build_filters,
    frequencies,
    partition_of_unity,
    smooth_cutoff,
)


def main():
    print("=" * 70)
    print("Dyadic filter bank on the 256-point torus grid")
    print("=" * 70)

    bank = build_filters(256)
    print(f"grid size        : {bank.grid_size}")
    print(f"blocks           : 0 .. {bank.j_max}")

    print("\nLow-pass profile plateau and support:")
    for xi in (0.0, 0.5, 0.75, 0.8, 0.875, 0.95, 1.0, 1.5):
        print(f"  psi({xi:5.3f}) = {smooth_cutoff(xi):.15f}")

    print("\nBand profile (supported in 3/4 <= |xi| <= 2):")
    for xi in (0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 3.0):
        print(f"  phi({xi:5.3f}) = {band_profile(xi):.15f}")

    partition = partition_of_unity(bank)
    ao = almost_orthogonality(bank)
    print("\nIdentities over all integer frequencies |xi| <= 128:")
    print(f"  max |partition - 1| : {np.abs(partition - 1.0).max():.3e}")
    print(f"  almost-orthogonality: [{ao.min():.6f}, {ao.max():.6f}]  (target [1/3, 1])")

    print("\nPer-block frequency coverage (nonzero multiplier range):")
    freqs = frequencies(256)  # the radial frequencies 0 .. 128
    for j, row in enumerate(bank.multipliers):
        active = freqs[row > 0]
        if active.size:
            print(f"  block {j}: |xi| in [{active.min():4.0f}, {active.max():4.0f}]")


if __name__ == "__main__":
    main()
