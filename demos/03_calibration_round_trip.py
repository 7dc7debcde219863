"""Synthetic measurement campaign: generate, calibrate, fit, budget.

The generators are the oracle for the whole analysis chain: known cell
parameters go through imperfect lines and additive noise, the high-drive
reference divides the lines back out, and the simultaneous four-channel
fit recovers the injected truth.  Circle fits on the calibrated through
traces then separate coupling from intrinsic loss.
"""

import numpy as np

from routercell.calibration import calibrate_responses, circle_fit, loss_budget
from routercell.estimation import fit_four_channel, initial_guess_from_spectrum
from routercell.presets import STEADY_STATE_CELL
from routercell.synth import CampaignConfig, LineSpec, gen_spectrum

TWO_PI = 2 * np.pi
cell = STEADY_STATE_CELL

freqs = np.linspace(6.138e9, 6.188e9, 401)
campaign = CampaignConfig(
    cell=cell,
    lines=LineSpec(transmission_db=-2.0, jitter_db=1.0, reflection_bound=0.05,
                   isolation_db=-20.0, ripple_db=0.2),
    freqs=freqs,
    noise_sigma=1e-3,
    seed=2026,
)
out = gen_spectrum(campaign)

raw_floor = 20 * np.log10(np.mean(np.abs(out.meas.channel("AA")[:40])))
print(f"raw through background: {raw_floor:.1f} dB (lines included)")

calibrated = calibrate_responses(out.meas, out.hd)
print(f"calibrated through background: "
      f"{np.mean(np.abs(calibrated.channel('AA')[:40])):.4f} (lines removed)")

init = initial_guess_from_spectrum(calibrated)
report = fit_four_channel(calibrated, init, seed=campaign.seed)

print(f"\nfit converged: {report.converged} ({report.n_iter} evaluations)")
print("  parameter     truth        fitted       sigma")
rows = [
    ("gamma_a/2pi", cell.gamma_a, report.value("gamma_a"), report.sigma["gamma_a"]),
    ("gamma_b/2pi", cell.gamma_b, report.value("gamma_b"), report.sigma["gamma_b"]),
    ("f_ge", cell.omega_ge, report.value("omega_ge"), report.sigma["omega_ge"]),
]
for name, truth, fitted, sigma in rows:
    print(f"  {name:11s}  {truth / TWO_PI / 1e6:11.4f}  {fitted / TWO_PI / 1e6:11.4f}"
          f"  {sigma / TWO_PI / 1e6:.5f}  MHz")
for name in ("phi_a", "phi_b"):
    print(f"  {name:11s}  {getattr(cell, name) / np.pi:+11.4f}  "
          f"{report.value(name) / np.pi:+11.4f}  {report.sigma[name] / np.pi:.5f}  pi")

fit_aa = circle_fit(calibrated.channel("AA"), freqs)
fit_bb = circle_fit(calibrated.channel("BB"), freqs)
budget = loss_budget(fit_aa, fit_bb, report.value("gamma_a"), report.value("gamma_b"))
print(f"\nloaded widths: 2pi*{fit_aa.kappa_loaded / TWO_PI / 1e6:.3f} / "
      f"2pi*{fit_bb.kappa_loaded / TWO_PI / 1e6:.3f} MHz")
print(f"intrinsic loss: 2pi*{budget.kappa_i / TWO_PI / 1e6:.3f} MHz "
      f"(0 injected; +-{budget.kappa_l_unc / TWO_PI / 1e6:.2f} MHz band)")
