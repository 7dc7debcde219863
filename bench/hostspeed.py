"""Host-speed correction: fixed reference work, timed between ops.

The benchmark runs on a shared host whose speed drifts by up to a factor
of two over minutes, and by up to three for bursts of a fraction of a
second, with almost no steal time reported.  Raw wall-clock latencies of
identical runs then spread wider than any useful regression bound.  Every timing the benchmark reports is therefore
multiplied by ``nominal / r``, where ``r`` is the mean time of a fixed
reference computation sampled just before and just after the timed
stretch.  A timing reads as it would on a host where the reference takes
its nominal time; where the host runs at that speed, the corrected and the
raw value agree.

There are two references, one for each kind of timed work:

* ``reference_fit``, for ops that run in the benchmark process: a
  Levenberg-Marquardt fit of a fixed five-parameter model to 401 fixed
  points with ``scipy.optimize.least_squares``.  Python callbacks over
  small numpy arrays, like the library's own work.
* ``reference_child``, for work done in fresh interpreters (set-up and the
  ``cli`` pipeline): this file run as a child, which starts Python, imports
  numpy and does ``CHILD_SOLVES`` fixed linear solves.

Neither uses anything from ``routercell``, so a change to the library moves
the corrected timings and leaves the references alone.  They run in the
benchmark process between ops, never during one, and their time is not
counted as op time.

In-process ops and their reference are timed in CPU time of the benchmark
process (``time.process_time``), not wall time.  The ops are single-threaded
computation with no I/O or waiting, so on an unshared CPU the two agree; on
the shared host wall time also counts stalls of tens of milliseconds in
which the host runs something else, and those made the latency tail of
identical runs spread by a factor of two.  Work in fresh interpreters is
timed in wall time.

Run as a script, this file is the child reference.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

#: Nominal time of one reference fit; corrected in-process timings read as on such a host.
REFERENCE_S = 2.5e-3
#: Nominal time of one reference child.
CHILD_REFERENCE_S = 0.3
#: Linear solves done by one reference child after its imports.
CHILD_SOLVES = 200

_X = np.linspace(-1.0, 1.0, 401)
_Y = np.cos(3.0 * _X) / (1.0 + ((_X - 0.1) / 0.2) ** 2) + 0.01 * np.sin(50.0 * _X)
_START = np.array([0.8, 0.0, 0.3, 2.5, 0.0])


def _residuals(p: np.ndarray) -> np.ndarray:
    return p[0] * np.cos(p[3] * _X) / (1.0 + ((_X - p[1]) / p[2]) ** 2) + p[4] - _Y


def reference_fit() -> float:
    """The in-process reference; returns its final cost so it cannot be skipped."""
    from scipy.optimize import least_squares  # not needed by the child reference

    return float(least_squares(_residuals, _START, method="lm").cost)


def reference_child() -> None:
    """Run this file in a fresh interpreter: start-up, numpy and ``CHILD_SOLVES`` solves."""
    subprocess.run([sys.executable, __file__], check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class HostSpeed:
    """Timeline of samples of one reference and the corrections it implies."""

    def __init__(self, reference, nominal_s: float, clock):
        self.reference = reference
        self.nominal_s = nominal_s
        self.clock = clock  # what samples, and the work they correct, are timed with
        self.starts: list[float] = []
        self.ends: list[float] = []

    def probe(self) -> None:
        t0 = self.clock()
        self.reference()
        t1 = self.clock()
        self.starts.append(t0)
        self.ends.append(t1)

    @property
    def seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """Raw and corrected seconds of [a, b], leaving out the samples inside it.

        [a, b] is cut at each sample taken inside it.  Each stretch is scaled
        by the nominal time over the mean of the samples just before and just
        after it (or the one that exists).
        """
        if not self.starts:
            raise RuntimeError("no reference samples")
        raw = corrected = 0.0
        k = bisect.bisect_right(self.ends, a)  # the first sample that ends after a
        cursor = a
        while cursor < b:
            stop = min(b, self.starts[k]) if k < len(self.starts) else b
            around = [self.ends[j] - self.starts[j] for j in (k - 1, k) if 0 <= j < len(self.starts)]
            span = max(0.0, stop - cursor)
            raw += span
            corrected += span * self.nominal_s / statistics.fmean(around)
            if k == len(self.starts):
                break
            cursor = max(cursor, self.ends[k])
            k += 1
        return raw, corrected

    def summary(self) -> dict:
        return {"samples": len(self.starts),
                "median_ms": 1e3 * statistics.median(self.seconds) if self.starts else None,
                "nominal_ms": 1e3 * self.nominal_s}


def in_process() -> HostSpeed:
    return HostSpeed(reference_fit, REFERENCE_S, time.process_time)


def child() -> HostSpeed:
    return HostSpeed(reference_child, CHILD_REFERENCE_S, time.perf_counter)


if __name__ == "__main__":
    a = np.vander(_X[::10], 41)
    for k in range(CHILD_SOLVES):
        np.linalg.solve(a + k * np.eye(41), _Y[::10])
