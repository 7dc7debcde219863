"""Temperature and drive-power limits of the transfer efficiency.

Thermal photons heat both relaxation and dephasing linearly in the bath
occupation; strong drives saturate the single-photon mediator.  Both
effects are modeled, re-fitted from synthetic sweeps, and the photon
number in a measurement pulse is computed from its amplitude.
"""

import numpy as np

from routercell.estimation import fit_saturation, fit_thermal
from routercell.model import (
    SaturationParams,
    ThermalCoefficients,
    efficiency_thermal,
    n_thermal,
    photons_in_pulse,
    saturation_curve,
)
from routercell.presets import REFERENCE_THERMAL, THERMAL_SWEEP_CELL

TWO_PI = 2 * np.pi
cell = THERMAL_SWEEP_CELL
tc = REFERENCE_THERMAL

temps = np.linspace(0.02, 0.40, 24)
occupation = n_thermal(temps, cell.omega_ge)
e = efficiency_thermal(occupation, cell.gamma_a, cell.gamma_b, tc)

print("  T (mK)    n_th      E")
for t, n, v in list(zip(temps, occupation, e))[::4]:
    print(f"  {t * 1e3:6.1f}  {n:.5f}  {v:.4f}")
print(f"\nzero-occupation efficiency: "
      f"{efficiency_thermal(0.0, cell.gamma_a, cell.gamma_b, tc):.4f}")

report = fit_thermal(e, temps, cell.gamma_a, cell.gamma_b, cell.omega_ge)
fitted = ThermalCoefficients(report.value("gamma1_zero"), report.value("gamma_phi_zero"))
print(f"refit gamma1_0   = 2pi*{fitted.gamma1_zero / TWO_PI / 1e6:.3f} MHz "
      f"(injected 2pi*{tc.gamma1_zero / TWO_PI / 1e6:.2f})")
print(f"refit gamma_phi0 = 2pi*{fitted.gamma_phi_zero_per_photon / TWO_PI / 1e6:.2f} MHz "
      f"(injected 2pi*{tc.gamma_phi_zero_per_photon / TWO_PI / 1e6:.2f})")
print("dephasing per thermal photon dominates relaxation by "
      f"{fitted.gamma_phi_zero_per_photon / fitted.gamma1_zero:.0f}x")

# photon number of a 2 us pulse on a 50 ohm line
print("\n  amplitude (uV)   <n> per pulse")
for amp_uv in (0.01, 0.1, 1.0):
    n_avg = photons_in_pulse(amp_uv * 1e-6, 50.0, 2e-6, cell.omega_ge)
    print(f"  {amp_uv:13.2f}   {n_avg:.3g}")

# saturation of the through channel: dip fills in as <n> grows
low = 1.0 - cell.gamma_a / cell.gamma_sum
truth = SaturationParams(a=1.0, b=1.0 - low, c=1.0, d=2.0)
n_grid = np.geomspace(1e-2, 1e4, 41)
mags = saturation_curve(n_grid, truth)
sat = fit_saturation(mags, n_grid)
print(f"\nsaturation fit on the through channel: a = {sat.value('a'):.3f}, "
      f"b = {sat.value('b'):.3f}, c = {sat.value('c'):.3f}, d = {sat.value('d'):.2f}")
print("power exponent c near 1 confirms the linear photon-number scaling")
