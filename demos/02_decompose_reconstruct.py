"""Split a function into dyadic blocks, rebuild it, and compare norms.

Decomposition is an exact partition on the grid, so reconstruction returns
the input to rounding.  Blockwise sums with dyadic weights reproduce the
Sobolev norm up to the almost-orthogonality constants, and the Besov norm
at (p, q) = (2, 2) tracks it.
"""
import numpy as np

from besovflow.dyadic import dyadic_norm
from besovflow.littlewood_paley import (
    GridFunction,
    besov_norm,
    build_filters,
    decompose,
    grid_l2_norm,
    reconstruct,
    reconstruction_stability_ratio,
    sobolev_norm,
)


def main():
    print("=" * 70)
    print("Decompose / reconstruct on a two-scale signal")
    print("=" * 70)

    n = 256
    bank = build_filters(n)
    u = GridFunction.from_function(
        lambda x: np.sin(x) + 0.2 * np.cos(13.0 * x) + 0.05 * np.sin(40.0 * x), n
    )

    f = decompose(u, bank)
    print("\nBlockwise L2 norms (energy localizes at modes 1, 13, 40):")
    for j, value in enumerate(f.block_norms):
        bar = "#" * int(40 * value / f.block_norms.max())
        print(f"  block {j}: {value:10.3e} {bar}")

    rebuilt = reconstruct(f, bank)
    error = np.abs(rebuilt.values - u.values).max() / np.abs(u.values).max()
    print(f"\nreconstruction relative error: {error:.3e}")

    print("\nNorm comparisons:")
    print(f"  L2                    : {grid_l2_norm(u):.6f}")
    for s in (0.0, 1.0, 2.0):
        hs = sobolev_norm(u, s)
        bs = besov_norm(u, s, 2.0, 2.0, bank)
        sigma = dyadic_norm(f.block_norms[None], (s, 2.0))[0]
        print(
            f"  s={s:3.1f}: Sobolev {hs:10.4f}   Besov(2,2) {bs:10.4f}   "
            f"block-sequence {sigma:10.4f}"
        )

    # on decompose's range the round trip multiplies the spectrum by the
    # partition of unity, so these ratios read 1 to rounding
    print("\nRound-trip growth of decompose(reconstruct(.)) in the (s,1) norms:")
    for s in (0.0, 1.0, 2.0):
        print(f"  s={s:3.1f}: ratio {reconstruction_stability_ratio([u], bank, s)[0]:.6f}")


if __name__ == "__main__":
    main()
