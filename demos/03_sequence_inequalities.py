"""The elementary inequalities of the dyadic sequence calculus, run forward.

Each block prints the measured value next to its certified bound on random
sequences: the truncation smoothing gain, the weighted truncation sum with
its sharp constant 1/(1 - 2^{r-r'}), Young's convolution inequality, and
the interpolation split whose two closed-form pieces dominate the middle
norm.  A sequence enters as its row of block norms, a one-row batch; every
function returns one value per row.
"""
import math

import numpy as np

from besovflow.dyadic import (
    interpolation_bound,
    random_sequence,
    smoothing_gain,
    truncation_power_sum,
    weighted_smoothing_sum,
    young_convolve,
)


def main():
    rng = np.random.default_rng(1)
    print("=" * 70)
    print("Sequence-space inequalities on random data")
    print("=" * 70)

    print("\nSmoothing gain  ||S_n f||_{r',q} <= 2^{n(r'-r)} ||f||_{r,q}:")
    for _ in range(5):
        f = random_sequence(rng, 1, max_support=12, log2_range=(-6, 6))
        r, rp, n = -0.5, 1.5, int(rng.integers(0, 8))
        (value,), (bound,) = smoothing_gain(f, r, rp, 2.0, n)
        print(f"  n={n}: value {value:12.4e} <= bound {bound:12.4e}")

    print("\nWeighted truncation sum against ||f||_{r,q}/(1 - 2^{r-r'}):")
    for q in (1.0, 2.0, math.inf):
        f = random_sequence(rng, 1, max_support=12, log2_range=(-6, 6))
        (value,), (bound,) = weighted_smoothing_sum(f, 0.0, 1.0, q)
        print(f"  q={q}: value {value:12.4e} <= bound {bound:12.4e}")

    print("\nPower-form truncation sum (the bound is attained exactly):")
    f = random_sequence(rng, 1, max_support=10, log2_range=(-4, 4))
    (value,), (bound,) = truncation_power_sum(f, 0.0, 1.0, 2.0)
    print(f"  value {value:.12e}")
    print(f"  bound {bound:.12e}")

    print("\nYoung convolution  ||u*v||_q <= ||u||_1 ||v||_q:")
    for q in (1.0, 2.0, math.inf):
        u = rng.standard_normal(6)
        v = rng.standard_normal(9)
        result = young_convolve(u[None], v[None], q)
        print(f"  q={q}: norm {result.norm[0]:10.4f} <= bound {result.bound[0]:10.4f}")

    print("\nInterpolation split at the best level N:")
    f = random_sequence(rng, 1, max_support=10, log2_range=(-4, 4))
    s0, s, s1, q = 0.0, 1.0, 2.0, 2.0
    # one call bounds every split level: the three norms are taken once
    parts = interpolation_bound(f, s0, s, s1, q, np.arange(f.shape[1] + 4))
    (actual,), (lows,), (highs,) = parts.actual, parts.low, parts.high
    print(f"  actual ||f||_(s=1,q=2) = {actual:.6e}")
    totals = lows + highs
    best = math.inf
    for n_split, (low, high, total) in enumerate(zip(lows, highs, totals)):
        marker = ""
        if total < best:
            best, marker = total, "  <- best so far"
        print(f"  N={n_split}: low {low:10.4e} + high {high:10.4e} = {total:10.4e}{marker}")
    print(f"  min over N: {totals.min():.6e} >= actual {actual:.6e}")


if __name__ == "__main__":
    main()
