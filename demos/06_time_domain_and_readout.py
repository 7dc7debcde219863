"""Time-domain lifetimes and IQ readout decomposition.

Energy relaxation and driven-Rabi decay traces are fitted for T1 and
T_R; together with the steady-state couplings they budget the decay
into waveguide emission, bath loss and pure dephasing.  Populations are
reconstructed from raw heterodyne IQ clouds by projecting onto their
principal axis, anchored by the zero-drive reference.
"""

import numpy as np

from routercell.estimation import (
    coupling_limited_t1,
    fit_T1,
    fit_rabi_decay,
    pca_populations,
    pi_amplitude_consistency,
    rate_budget,
)
from routercell.presets import STEADY_STATE_CELL
from routercell.synth import gen_iq_shots

TWO_PI = 2 * np.pi
cell = STEADY_STATE_CELL
rng = np.random.default_rng(6)

# --- energy relaxation ---------------------------------------------------
t1_true = 20.5e-9
delays = np.linspace(0, 100e-9, 41)
p_relax = 0.72 * np.exp(-delays / t1_true) + 1.6e-3 \
    + 0.01 * rng.standard_normal(delays.size)
t1_fit = fit_T1(p_relax, delays)
print(f"T1 fit: {t1_fit.value('t1') * 1e9:.1f} ns "
      f"(injected {t1_true * 1e9:.1f} ns, p0 = {t1_fit.value('p0'):.2f})")
print(f"coupling-limited prediction 1/(2 gamma_a + 2 gamma_b) = "
      f"{coupling_limited_t1(cell.gamma_a, cell.gamma_b) * 1e9:.1f} ns")

# --- driven Rabi decay ----------------------------------------------------
t_r_true, t_pi = 25e-9, 24e-9
times = np.linspace(0, 200e-9, 201)
p_rabi = (1.2 * np.sin(np.pi * times / (2 * t_pi)) ** 2 - 0.5) \
    * np.exp(-times / t_r_true) + 0.5 + 0.01 * rng.standard_normal(times.size)
rabi_fit = fit_rabi_decay(p_rabi, times)
print(f"\nRabi fit: T_R = {rabi_fit.value('t_r') * 1e9:.1f} ns, "
      f"t_pi = {rabi_fit.value('t_pi') * 1e9:.1f} ns, "
      f"p_max = {rabi_fit.value('p_max'):.2f}")

# --- rate budget ----------------------------------------------------------
budget = rate_budget(t1_fit.value("t1"), rabi_fit.value("t_r"),
                     cell.gamma_a, cell.gamma_b, t1_unc_s=2e-9, t_r_unc_s=2e-9)
lo, hi = budget.gamma_phi_range
print(f"\nrate budget:")
print(f"  gamma_1    = 2pi*{budget.gamma_1 / TWO_PI / 1e6:.2f} MHz")
print(f"  gamma_bath = 2pi*{budget.gamma_bath / TWO_PI / 1e6:.2f} MHz "
      "(clipped at 0: decay is coupling-dominated)")
print(f"  gamma_phi  = 2pi*{budget.gamma_phi / TWO_PI / 1e6:.2f} MHz, "
      f"worst-case range 2pi*[{lo / TWO_PI / 1e6:.2f}, {hi / TWO_PI / 1e6:.2f}] MHz")
amp_ratio, coupling_ratio = pi_amplitude_consistency(1.32, 1.0, cell.gamma_a, cell.gamma_b)
print(f"  pi-amplitude ratio {amp_ratio:.2f} vs coupling ratio {coupling_ratio:.2f}")

# --- IQ population reconstruction ------------------------------------------
z_g, z_e = 0.3 + 0.1j, -0.5 + 0.8j
amps = np.linspace(0, 2.0, 21)
p_true = np.sin(np.pi * amps / 2.0) ** 2
p_true[0] = 0.0
clouds = gen_iq_shots(amps, p_true, z_g, z_e, sigma=0.05 * abs(z_e - z_g),
                      seed=7, dc_offset=0.05 + 0.02j)
trace = pca_populations(clouds, 0.0)
worst = max(abs(p - t) for p, t in zip(trace.p, p_true[np.argsort(amps)]))
print(f"\nPCA population reconstruction: worst error {worst:.3f} "
      "(worst-case tolerance 0.15)")
print("  drive    p (true)   p (reconstructed)")
for a, pt, pr in list(zip(amps, p_true, trace.p))[::4]:
    print(f"  {a:5.2f}   {pt:8.3f}   {pr:17.3f}")
