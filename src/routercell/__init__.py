"""Modeling, calibration and parameter estimation for a two-waveguide
microwave router basic cell.

The cell is a single two-level emitter coupled to two open waveguides.
This package forward-simulates its four scattering channels, de-embeds
measurement-line effects through multiport S-matrix algebra, calibrates
raw spectra against high-drive references, and fits the physical rates
(couplings, dephasing, thermal, saturation) from measured or synthetic
traces.
"""
