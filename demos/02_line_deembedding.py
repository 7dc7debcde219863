"""Embedding the cell between measurement lines and removing them again.

Composes the cell S-matrix with imperfect two-port line models exactly
(block elimination of the internal waves) and through the truncated
multiple-reflection series, then recovers the line isolation from
high-drive reference traces.
"""

import numpy as np

from routercell.model import cell_smatrix
from routercell.network import (
    compose_exact,
    compose_neumann,
    ideal_lines,
    simplified_forward,
)
from routercell.presets import STEADY_STATE_CELL
from routercell.synth import LineSpec, gen_lines, hd_cell_coefficients

TWO_PI = 2 * np.pi
cell = cell_smatrix(STEADY_STATE_CELL.omega_ge + TWO_PI * 1.5e6, STEADY_STATE_CELL)

# with ideal lines the composition returns the cell itself
out = compose_exact(cell, ideal_lines())
print(f"ideal-line composition error: {np.max(np.abs(out.s_meas.entries - cell.entries)):.2e}")

# realistic lines: attenuating, slightly reflective, with finite isolation
lines = gen_lines(LineSpec(transmission_db=-3.0, reflection_bound=0.1,
                           isolation_db=-20.0), seed=42)
exact = compose_exact(cell, lines)
print("\nreflection series versus exact composition:")
print("  order   max entry error")
for order in range(6):
    result = compose_neumann(cell, lines, order)
    print(f"  {order:5d}   {result.truncation_error:.3e}")
print("each extra order adds one internal round trip; the error ratio is")
print("set by the spectral radius of the cell-line reflection product")

# high-drive references see only the lines: the cell through channels
# saturate to 1 and the cross channels to 0, leaving isolation leakage,
# and the line-free product sqrt(AB BA / (AA BB)) recovers the isolation
aa, bb, ab, ba = simplified_forward(hd_cell_coefficients(), lines)
recovered = np.sqrt(ab * ba / (aa * bb))
print(f"\ninjected isolation:  {20 * np.log10(abs(lines.isolation)):.1f} dB")
print(f"recovered isolation: {20 * np.log10(abs(recovered)):.1f} dB "
      f"(|error| = {abs(abs(recovered) - abs(lines.isolation)):.1e})")
