"""The benchmark's three workloads: inputs, one op, and an independent check.

Every workload holds a fixed pool of instances and visits it in an order
drawn from the workload seed.  The pool is fixed so that
``result_err_max`` (the worst error over the pool) is a property of the
code under test and repeats exactly between runs, whatever the seed.

* ``campaign`` -- the acceptance-04 round trip in-process at n = 401:
  ``gen_spectrum`` -> ``calibrate_responses`` ->
  ``initial_guess_from_spectrum`` -> ``fit_four_channel`` -> two
  ``circle_fit`` -> ``loss_budget``.
* ``deembed`` -- the cell embedded between per-frequency lines over a
  401-point sweep, one ``cell_smatrix`` -> ``LineModel.at`` ->
  ``compose_exact`` -> ``compose_neumann(order=3)`` per point.
* ``cli`` -- one file-based pipeline ``synth`` -> ``calibrate`` -> ``fit``
  -> ``report`` at n = 4001, each step a child ``python -m routercell.cli``.

Library calls go through module attributes (``synth.gen_spectrum``), so
the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from routercell import calibration, estimation, model, network, synth
from routercell.presets import STEADY_STATE_CELL

from tracing import CLI_STEPS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CELL = STEADY_STATE_CELL
TWO_PI = 2.0 * math.pi
F_GE_HZ = CELL.omega_ge / TWO_PI
HALF_SPAN_HZ = 25e6
NOISE_SIGMA = 1e-3
CAMPAIGN_LINES = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                                reflection_bound=0.05, ripple_db=0.3)
DEEMBED_LINES = synth.LineSpec(transmission_db=-2.0, jitter_db=1.0,
                               reflection_bound=0.2, ripple_db=0.5)

#: compose_exact must match the benchmark's own composition this closely.
COMPOSE_TOL = 1e-9
#: A child process that runs longer than this is killed and the op fails.
CHILD_TIMEOUT_S = 120.0


def freq_grid(n: int) -> np.ndarray:
    return np.linspace(F_GE_HZ - HALF_SPAN_HZ, F_GE_HZ + HALF_SPAN_HZ, n)


@dataclass
class Check:
    ok: bool
    err: float | None = None
    reason: str = ""


def check_rates(converged: bool, params: dict) -> Check:
    """Acceptance-04 bars against the true cell.

    Couplings within 1 %, ``omega_ge`` within 2 pi * 10 kHz, phases within
    0.01 pi, and a converged fit.  ``err`` is the worse relative coupling
    error of the two.
    """
    err_a = abs(params["gamma_a"] - CELL.gamma_a) / CELL.gamma_a
    err_b = abs(params["gamma_b"] - CELL.gamma_b) / CELL.gamma_b
    bars = {
        "converged": bool(converged),
        "gamma_a": err_a < 0.01,
        "gamma_b": err_b < 0.01,
        "omega_ge": abs(params["omega_ge"] - CELL.omega_ge) < TWO_PI * 10e3,
        "phi_a": abs(params["phi_a"] - CELL.phi_a) < 0.01 * math.pi,
        "phi_b": abs(params["phi_b"] - CELL.phi_b) < 0.01 * math.pi,
    }
    missed = [name for name, ok in bars.items() if not ok]
    return Check(not missed, max(err_a, err_b), ", ".join(missed))


def visit_order(seed: int, pool_size: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(pool_size)]


class Campaign:
    """Synthetic round trip: synth, calibrate, fit, circle fits, loss budget."""

    name = "campaign"
    points = 401
    pool_size = 100

    def __init__(self, workdir: Path):
        freqs = freq_grid(self.points)
        self.pool = [
            synth.CampaignConfig(cell=CELL, lines=CAMPAIGN_LINES, freqs=freqs,
                                 noise_sigma=NOISE_SIGMA, seed=k)
            for k in range(self.pool_size)
        ]

    def op(self, index: int, traced: bool = False):
        config = self.pool[index]
        out = synth.gen_spectrum(config)
        cal = calibration.calibrate_responses(out.meas, out.hd)
        init = estimation.initial_guess_from_spectrum(cal)
        report = estimation.fit_four_channel(cal, init, seed=config.seed)
        fit_aa = calibration.circle_fit(cal.channel("AA"), cal.freqs)
        fit_bb = calibration.circle_fit(cal.channel("BB"), cal.freqs)
        calibration.loss_budget(fit_aa, fit_bb, report.value("gamma_a"), report.value("gamma_b"))
        return report

    def check(self, index: int, report) -> Check:
        return check_rates(report.converged, report.params)


def reference_compose(cells: np.ndarray, lines) -> np.ndarray:
    """Measured S-matrices from stacked cells, written independently of the library.

    External waves face the instrument: port 1 of the input lines and port 2
    of the output lines, in port order (A-in, A-out, B-in, B-out).  The
    internal waves face the cell.  With the diagonal blocks ``S11`` (external
    to external), ``S12``, ``S21`` and ``S22`` (internal), the result is
    ``S11 + S12 S solve(I - S22 S, S21)``.
    """
    ia, oa, ib, ob = (np.broadcast_to(m, (len(cells), 2, 2)) for m in lines.matrices)

    def diag(a, b, c, d):
        out = np.zeros((len(cells), 4, 4), dtype=complex)
        for k, v in enumerate((a, b, c, d)):
            out[:, k, k] = v
        return out

    s11 = diag(ia[:, 0, 0], oa[:, 1, 1], ib[:, 0, 0], ob[:, 1, 1])
    s12 = diag(ia[:, 0, 1], oa[:, 1, 0], ib[:, 0, 1], ob[:, 1, 0])
    s21 = diag(ia[:, 1, 0], oa[:, 0, 1], ib[:, 1, 0], ob[:, 0, 1])
    s22 = diag(ia[:, 1, 1], oa[:, 0, 0], ib[:, 1, 1], ob[:, 0, 0])
    eye = np.broadcast_to(np.eye(4), cells.shape)
    return s11 + s12 @ cells @ np.linalg.solve(eye - s22 @ cells, s21)


class Deembed:
    """Per-point exact and third-order series composition over a sweep."""

    name = "deembed"
    points = 401
    pool_size = 8
    order = 3

    def __init__(self, workdir: Path):
        freqs = freq_grid(self.points)
        self.omega = TWO_PI * freqs
        self.pool = [synth.gen_lines(DEEMBED_LINES, k, freqs=freqs) for k in range(self.pool_size)]
        self._expected: dict[int, np.ndarray] = {}

    def op(self, index: int, traced: bool = False):
        lines = self.pool[index]
        n = self.points
        exact = np.empty((n, 4, 4), dtype=complex)
        series = np.empty((n, 4, 4), dtype=complex)
        reported = np.empty(n)
        for i in range(n):
            cell = model.cell_smatrix(self.omega[i], CELL)
            point = lines.at(i)
            exact[i] = network.compose_exact(cell, point).s_meas.entries
            result = network.compose_neumann(cell, point, order=self.order)
            series[i] = result.s_meas.entries
            reported[i] = result.truncation_error
        return exact, series, reported

    def expected(self, index: int) -> np.ndarray:
        if index not in self._expected:
            cells = np.array([model.cell_smatrix(w, CELL).entries for w in self.omega])
            self._expected[index] = reference_compose(cells, self.pool[index])
        return self._expected[index]

    def check(self, index: int, result) -> Check:
        """compose_exact against the reference, and the series' own error report.

        ``err`` is the worst entry error of the order-3 series against the
        reference, i.e. its truncation error measured here.
        """
        exact, series, reported = result
        ref = self.expected(index)
        exact_dev = float(np.max(np.abs(exact - ref)))
        series_dev = np.max(np.abs(series - ref), axis=(1, 2))
        report_dev = float(np.max(np.abs(series_dev - reported)))
        missed = []
        if not exact_dev <= COMPOSE_TOL:
            missed.append(f"compose_exact off by {exact_dev:.3e}")
        if not report_dev <= COMPOSE_TOL:
            missed.append(f"truncation_error misreported by {report_dev:.3e}")
        return Check(not missed, float(series_dev.max()), ", ".join(missed))


def cli_ini(n_points: int) -> str:
    """INI for the cli pipeline: the campaign's cell, lines and noise at n points."""
    lines = CAMPAIGN_LINES
    return "\n".join([
        "[model]",
        f"gamma_a_hz = {CELL.gamma_a / TWO_PI!r}",
        f"gamma_b_hz = {CELL.gamma_b / TWO_PI!r}",
        f"f_ge_hz = {CELL.omega_ge / TWO_PI!r}",
        f"f_ef_hz = {CELL.omega_ef / TWO_PI!r}",
        f"phi_a_rad = {CELL.phi_a!r}",
        f"phi_b_rad = {CELL.phi_b!r}",
        "[grid]",
        f"f_start_hz = {F_GE_HZ - HALF_SPAN_HZ!r}",
        f"f_stop_hz = {F_GE_HZ + HALF_SPAN_HZ!r}",
        f"n_points = {n_points}",
        "[lines]",
        f"transmission_db = {lines.transmission_db!r}",
        f"jitter_db = {lines.jitter_db!r}",
        f"reflection_bound = {lines.reflection_bound!r}",
        f"isolation_db = {lines.isolation_db!r}",
        f"ripple_db = {lines.ripple_db!r}",
        "[noise]",
        f"sigma = {NOISE_SIGMA!r}",
        "",
    ])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, cwd: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The child is reaped with ``os.wait4`` to read its own peak RSS.  A timer
    kills it after ``CHILD_TIMEOUT_S``.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class PipelineResult:
    params: dict | None
    converged: bool
    truth: dict | None
    walls: dict
    peak_rss_mb: float
    import_s: list
    spans: list  # one span list per traced child
    warnings: dict
    error: str = ""


class Cli:
    """File-based pipeline through child ``routercell.cli`` processes."""

    name = "cli"
    points = 4001
    pool_size = 4

    def __init__(self, workdir: Path):
        #: Called between two child steps; the benchmark probes the host's speed there.
        self.between_steps = None
        self.workdir = Path(workdir)
        self.ini = self.workdir / "bench.ini"
        self.ini.write_text(cli_ini(self.points))

    def _argv(self, step: str, out: Path, seed: int, inputs: list, spans: Path | None) -> list:
        if spans is None:
            head = [sys.executable, "-m", "routercell.cli"]
        else:
            head = [sys.executable, str(BENCH / "cli_shim.py"), str(spans)]
        return head + ["--config", str(self.ini), "--out", str(out), "--seed", str(seed),
                       "--run-id", step, step] + [str(p) for p in inputs]

    def op(self, index: int, traced: bool = False) -> PipelineResult:
        out = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        try:
            return self._pipeline(out, index, traced)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _pipeline(self, out: Path, seed: int, traced: bool) -> PipelineResult:
        runs = out / "runs"
        inputs = {
            "synth": [],
            "calibrate": [runs / "synth" / "meas.csv", runs / "synth" / "hd.csv"],
            "fit": [runs / "calibrate" / "calibrated.csv"],
            "report": [runs / "fit" / "fit.json"],
        }
        result = PipelineResult(None, False, None, {}, 0.0, [], [], {})
        for step in CLI_STEPS:
            if step != CLI_STEPS[0] and self.between_steps is not None:
                self.between_steps()
            spans = out / f"spans-{step}.json" if traced else None
            argv = self._argv(step, out, seed, inputs[step], spans)
            code, wall, rss = run_child(argv, out, out / f"{step}.stderr")
            result.walls[step] = wall
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            if code != 0:
                message = (out / f"{step}.stderr").read_text(errors="replace").strip()
                result.error = f"{step} exited with {code}: {message[-500:]}"
                return result
            if traced:
                record = json.loads(spans.read_text())
                result.import_s.append(record["import_s"])
                result.spans.append(record["spans"])
                for layer, count in record["warnings"].items():
                    result.warnings[layer] = result.warnings.get(layer, 0) + count
        fit = json.loads((runs / "fit" / "fit.json").read_text())
        result.params = fit["params"]
        result.converged = fit["converged"]
        result.truth = json.loads((runs / "synth" / "truth.json").read_text())["truth"]
        return result

    def check(self, index: int, result: PipelineResult) -> Check:
        """fit.json against the true cell, and truth.json against the INI."""
        if result.params is None:
            return Check(False, None, result.error or "no fit.json")
        check = check_rates(result.converged, result.params)
        expected = {"gamma_a_hz": CELL.gamma_a, "gamma_b_hz": CELL.gamma_b, "f_ge_hz": CELL.omega_ge}
        for key, value in expected.items():
            if not math.isclose(result.truth[key] * TWO_PI, value, rel_tol=1e-12):
                check.ok = False
                check.reason = ", ".join(filter(None, [check.reason, f"truth.json {key}"]))
        return check


WORKLOADS = {w.name: w for w in (Campaign, Deembed, Cli)}
