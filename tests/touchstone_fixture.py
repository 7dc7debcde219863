"""Four-port touchstone fixtures: the test writer that ``io.read_touchstone`` reads back.

Nothing in the package writes touchstone files; the tests write them here,
in RI format with the port map of :mod:`routercell.model`, to feed the reader
of :mod:`routercell.io`.
"""

from pathlib import Path

import numpy as np

from routercell.model import _CHANNEL_IN, _CHANNEL_OUT


def write_touchstone(path, freqs, smatrix) -> None:
    """Write a 4-port touchstone file in RI format."""
    freqs = np.asarray(freqs, dtype=float)
    s = np.asarray(smatrix, dtype=complex)
    if s.shape != (freqs.size, 4, 4):
        raise ValueError("smatrix must have shape (n, 4, 4)")
    with Path(path).open("w") as fh:
        fh.write("! 4-port S-parameters, ports: 1=A-in 2=A-out 3=B-in 4=B-out\n")
        fh.write("# HZ S RI R 50\n")
        for f, mat in zip(freqs, s):
            for row in range(4):
                head = repr(float(f)) if row == 0 else ""
                entries = " ".join(
                    f"{float(mat[row, col].real)!r} {float(mat[row, col].imag)!r}"
                    for col in range(4)
                )
                fh.write(f"{head} {entries}\n".lstrip())


def spectrum_to_smatrix(spectrum) -> np.ndarray:
    """Embed the four channels into (n, 4, 4) matrices at their port slots."""
    s = np.zeros((spectrum.freqs.size, 4, 4), dtype=complex)
    s[:, _CHANNEL_OUT, _CHANNEL_IN] = spectrum.traces.T
    return s
