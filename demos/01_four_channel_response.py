"""Forward model of the basic cell: four scattering channels.

Evaluates the through and cross transmission coefficients around the
emitter resonance for the reference device parameters, checks energy
conservation of the full 4x4 S-matrix, and prints a small magnitude
table like the ones the measurement pipeline emits.
"""

import numpy as np

from routercell.model import CellParams, cell_coefficients, cell_smatrix, efficiency
from routercell.presets import STEADY_STATE_CELL

TWO_PI = 2 * np.pi

cell = STEADY_STATE_CELL
print(f"couplings: gamma_a = 2pi*{cell.gamma_a / TWO_PI / 1e6:.2f} MHz, "
      f"gamma_b = 2pi*{cell.gamma_b / TWO_PI / 1e6:.2f} MHz")

freqs = np.linspace(6.148e9, 6.178e9, 13)
coeffs = cell_coefficients(TWO_PI * freqs, cell)  # rows AA, BB, AB, BA

print("\n  f (GHz)    |t_AA|   |t_BB|   |t_AB|   |t_BA|")
for f, column in zip(freqs, coeffs.T):
    row = "  ".join(f"{abs(v):7.4f}" for v in column)
    print(f"  {f / 1e9:.5f}  {row}")

# on resonance the through dip bottoms out at gamma_other / gamma_sum and
# the cross peak reaches sqrt(gamma_a gamma_b) / gamma_sum
res_aa, _, res_ab, _ = cell_coefficients(cell.omega_ge, cell)
print(f"\nresonant through dip |t_AA| = {abs(res_aa):.4f} "
      f"(expected {cell.gamma_b / cell.gamma_sum:.4f})")
print(f"resonant cross peak |t_AB| = {abs(res_ab):.4f} "
      f"(expected {np.sqrt(cell.gamma_a * cell.gamma_b) / cell.gamma_sum:.4f})")

# lossless cell: the full S-matrix is unitary at every frequency
lossless = CellParams(cell.gamma_a, cell.gamma_b, cell.omega_ge)
worst = 0.0
for omega in cell.omega_ge + np.linspace(-10, 10, 101) * cell.gamma_sum:
    s = cell_smatrix(omega, lossless).entries
    worst = max(worst, np.max(np.abs(s.conj().T @ s - np.eye(4))))
print(f"\nlossless unitarity defect over 101 frequencies: {worst:.2e}")

# transfer efficiency degrades with dephasing
print("\n  gamma_phi / 2pi (MHz)   E at resonance")
for gphi_mhz in (0.0, 0.2, 1.0, 2.0):
    p = CellParams(cell.gamma_a, cell.gamma_b, cell.omega_ge,
                   gamma_phi=TWO_PI * gphi_mhz * 1e6)
    print(f"  {gphi_mhz:20.1f}   {efficiency(0.0, p).real:.4f}")
