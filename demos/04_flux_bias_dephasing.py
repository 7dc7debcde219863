"""Flux tuning and dephasing reconstruction from the transfer efficiency.

Away from the sweet spot the transition frequency follows a quadratic in
bias current and flux noise dephases the emitter.  The efficiency
E = (t_AB t_BA) / (t_AA t_BB) needs no calibration (line factors cancel),
so E at resonance directly measures the dephasing rate, which in turn
fits the bias-current noise density.
"""

from dataclasses import replace

import numpy as np

from routercell.estimation import fit_E_polynomial, fit_flux_noise, gamma_phi_from_E
from routercell.model import efficiency, gamma_phi_of_bias, omega_ge_of_bias
from routercell.presets import (
    REFERENCE_CURRENT_NOISE_A2_PER_HZ,
    REFERENCE_FLUX,
    REFERENCE_GAMMA_PHI0,
    STEADY_STATE_CELL,
)

TWO_PI = 2 * np.pi
# the coupling phases are line artifacts; the efficiency analysis treats
# the couplings as effectively real
cell = replace(STEADY_STATE_CELL, phi_a=0.0, phi_b=0.0)
flux = REFERENCE_FLUX

biases = np.linspace(-0.55, 0.55, 23)
gamma_phi_true = gamma_phi_of_bias(biases, flux, REFERENCE_CURRENT_NOISE_A2_PER_HZ,
                                   REFERENCE_GAMMA_PHI0)

print("  I_b (mA)   f_ge (GHz)   gamma_phi/2pi (MHz)   E(res)")
e_res = np.empty(biases.size)
for i, ib in enumerate(biases):
    p = replace(cell, omega_ge=omega_ge_of_bias(ib, flux), gamma_phi=gamma_phi_true[i])
    e_res[i] = efficiency(0.0, p).real
    if i % 4 == 0:
        print(f"  {ib:+7.2f}   {p.omega_ge / TWO_PI / 1e9:.6f}     "
              f"{gamma_phi_true[i] / TWO_PI / 1e6:14.3f}   {e_res[i]:.3f}")

poly = fit_E_polynomial(e_res, biases)
print(f"\nquadratic fit of E(I_b): {poly.value('c2'):+.3f}/mA^2 "
      f"{poly.value('c1'):+.4f}/mA {poly.value('c0'):+.3f}")
print(f"sweet-spot efficiency: {poly.value('c0'):.3f}")

# invert E for the dephasing rate at each bias and fit the noise model
recon = gamma_phi_from_E(e_res, cell.gamma_a, cell.gamma_b)
noise_fit = fit_flux_noise(recon, biases, flux)
print(f"\nflux-noise fit:")
print(f"  S_I        = {noise_fit.value('s_i'):.3e} A^2/Hz "
      f"(injected {REFERENCE_CURRENT_NOISE_A2_PER_HZ:.1e})")
print(f"  gamma_phi0 = 2pi*{noise_fit.value('gamma_phi_0') / TWO_PI / 1e6:.3f} MHz "
      f"(injected 2pi*{REFERENCE_GAMMA_PHI0 / TWO_PI / 1e6:.2f} MHz)")
