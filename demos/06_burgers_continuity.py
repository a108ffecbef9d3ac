"""A quasilinear flow through the whole pipeline: pre-shock Burgers.

The initial-datum family alpha sin(x) + beta sin(2x) stays well below the
shock time at horizon 0.5.  The demo estimates the hypothesis constants on
the family, verifies the telescoped convergence of the flow along datum
truncations, probes continuity of the data-to-solution map directly, shows
the square-summable block structure in time (Chemin-Lerner), and closes
with the independent pseudospectral cross-check of the solver itself.
"""
import math

import numpy as np

from besovflow.engine import verify_map
from besovflow.flows import (
    FlowConfig,
    burgers_flow,
    burgers_spectral_reference,
    chemin_lerner_norm,
    flow_as_sequence_map,
    shock_time,
    sinusoid_datum,
    sup_time_sobolev_norm,
    time_continuity_modulus,
)
from besovflow.littlewood_paley import build_filters, decompose


def main():
    print("=" * 70)
    print("Burgers before shocks: continuity of the data-to-solution map")
    print("=" * 70)

    n = 256
    bank = build_filters(n)
    coeffs = [(0.1, 0.05), (0.08, -0.04), (-0.06, 0.05), (0.12, 0.0)]
    data = [sinusoid_datum(n, a, b) for a, b in coeffs]
    print("\ndatum family alpha sin x + beta sin 2x:")
    for (a, b), u in zip(coeffs, data):
        print(f"  alpha={a:6.2f} beta={b:6.2f}  shock time {shock_time(u)[0]:8.3f}")

    family = [decompose(u, bank) for u in data]
    cfg = FlowConfig(grid_size=n, T=0.5, time_steps=64, flow_kind="burgers")
    verified = verify_map(flow_as_sequence_map(cfg, bank), family, (0.0, 2.0, 3.0, 2.0))
    constants = verified.constants_checked
    print(f"\nestimated constants (with {constants.inflation:g} safety factor):")
    print(f"  C0 = {constants.C0_hat:.6f}, C1 = {constants.C1_hat:.6f}, "
          f"kappa = {constants.kappa}, C = {constants.C:.6f}")

    print("\nflow along truncated data converges to the flow of the datum:")
    for c in verified.rows("convergence"):
        print(f"  n={dict(c.index)['n']}: ||Phi(f) - Phi(S_n f)|| = {c.lhs:11.4e}  "
              f"(bound {c.rhs:10.4e})")

    print("\ncontinuity ladder toward a neighboring datum:")
    for row in verified.continuity.rows:
        print(f"  eps={row.scale:6.0e}: input {row.input_distance:.3e} -> "
              f"output {row.output_distance:.3e}")

    (traj,) = burgers_flow([data[0]], cfg)
    y2 = chemin_lerner_norm(traj, 2.0, bank)
    sup_h2 = sup_time_sobolev_norm(traj, 2.0)
    tails = time_continuity_modulus(traj, 2.0, bank)
    print("\ntime-frequency structure of the solution:")
    print(f"  Chemin-Lerner Y2 norm       : {y2:.6f}")
    print(f"  sup_t ||u(t)||_H2           : {sup_h2:.6f} "
          f"(<= sqrt(3) * Y2 = {math.sqrt(3) * y2:.6f})")
    print(f"  block-sup square tails      : "
          f"{['%.1e' % t for t in tails[:: max(1, len(tails) // 6)]]}")

    reference = burgers_spectral_reference(data[0], traj.times, steps_per_interval=32)
    worst = max(np.abs(a.values - b.values).max()
                for a, b in zip(traj.states, reference.states))
    print(f"\nindependent pseudospectral RK4 cross-check: max error {worst:.2e}")


if __name__ == "__main__":
    main()
