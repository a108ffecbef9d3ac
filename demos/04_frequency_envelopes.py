"""Frequency envelopes: slowly varying majorants with equivalent norms.

The envelope of a block sequence dominates its weighted block norms, can
fall only by a fixed factor per step, and its l^q norm pins the sequence
norm between (1 - 2^{s-s1}) ||gamma||_q and ||gamma||_q.
"""
import numpy as np

from besovflow.dyadic import dyadic_norm
from besovflow.envelope import (
    c_sequence,
    compute_envelope,
    envelope_equivalence,
    envelope_report_rows,
)
from besovflow.littlewood_paley import GridFunction, build_filters, decompose


def main():
    print("=" * 70)
    print("Frequency envelope of a concrete decomposed function")
    print("=" * 70)

    n = 256
    bank = build_filters(n)
    u = GridFunction.from_function(
        lambda x: np.sin(x) + 0.3 * np.sin(7.0 * x) + 0.01 * np.cos(50.0 * x), n
    )
    f = decompose(u, bank)
    norms = f.block_norms[None]  # the envelope functions take rows of block norms
    s, s1, q = 2.0, 3.0, 2.0
    env = compute_envelope(norms, s, s1)

    print(f"\norders (s, s1) = ({s}, {s1});  decay ratio past support: "
          f"{env.decay_ratio}")
    print("\n   n     gamma_n          c_n              2^(ns)||f_n||")
    for row in envelope_report_rows(env)[0]:
        print(f"  {row[0]:2d}  {row[1]:14.6e}  {row[2]:14.6e}  {row[3]:14.6e}")

    print("\nEnvelope dominates the weighted blocks, and varies slowly:")
    weighted = np.exp2(s * np.arange(f.support)) * f.block_norms
    head = env.gamma[0, : f.support]
    print(f"  max weighted-block / gamma : {np.max(weighted / head):.6f} (<= 1)")
    ratios = head[:-1] / head[1:]
    print(f"  max gamma_n / gamma_(n+1)  : {ratios.max():.6f} "
          f"(<= 2^(s1-s) = {2.0 ** (s1 - s)})")

    (lower,), (mid,), (upper,) = envelope_equivalence(norms, s, q, s1)
    print("\nNorm equivalence sandwich:")
    print(f"  (1 - 2^(s-s1)) ||gamma||_q = {lower:.6e}")
    print(f"  ||f||_(s,q)                = {mid:.6e}")
    print(f"  ||gamma||_q                = {upper:.6e}")
    print(f"  sequence norm check        = {dyadic_norm(norms, (s, q))[0]:.6e}")

    c = c_sequence(env)[0]
    print(f"\nadjacent sums c_n = gamma_n + gamma_(n+1): first five "
          f"{[f'{v:.3e}' for v in c[:5]]}")


if __name__ == "__main__":
    main()
