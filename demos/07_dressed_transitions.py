"""Dressed transition lines under a strong resonant drive.

A drive carrying N photons splits the emitter transitions; the red and
blue branches shift by half the splitting with separately fitted
coupling strengths.  The cross channel filters out the drive itself, so
the shifted lines are visible directly in transmission.
"""

import numpy as np

from routercell.model import dressed_lines
from routercell.presets import REFERENCE_DRESSED

TWO_PI = 2 * np.pi
dm = REFERENCE_DRESSED

print(f"bare transitions: f_ge = {dm.omega_ge / TWO_PI / 1e9:.3f} GHz, "
      f"f_ef = {dm.omega_ef / TWO_PI / 1e9:.3f} GHz")
print(f"couplings: lambda_red = 2pi*{dm.lambda_red / TWO_PI / 1e6:.2f} MHz, "
      f"lambda_blue = 2pi*{dm.lambda_blue / TWO_PI / 1e6:.2f} MHz")

photons = np.array([0.0, 1.0, 10.0, 50.0, 100.0, 200.0])
lines = dressed_lines(dm.omega_ge, photons, dm)

print("\n  N        ge red (MHz)   ge blue (MHz)   ef red (MHz)   ef blue (MHz)")
print("           (shifts from the bare transition)")
for i, n in enumerate(photons):
    print(f"  {n:6.0f}  {(lines.ge_red[i] - dm.omega_ge) / TWO_PI / 1e6:+13.2f}"
          f"  {(lines.ge_blue[i] - dm.omega_ge) / TWO_PI / 1e6:+14.2f}"
          f"  {(lines.ef_red[i] - dm.omega_ef) / TWO_PI / 1e6:+13.2f}"
          f"  {(lines.ef_blue[i] - dm.omega_ef) / TWO_PI / 1e6:+14.2f}")

print("\non resonance the shift is lambda*sqrt(N): red reaches "
      f"2pi*{dm.lambda_red * 10 / TWO_PI / 1e6:.1f} MHz at N = 100")
