"""Tests of the benchmark itself: smoke runs, output checks and trace arithmetic.

Run from the repository root with ``python -m pytest bench -q`` (about a
minute; the ``cli`` smoke runs start child interpreters).
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CELL, TWO_PI  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def smoke(workload: str, trace: int, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    out = smoke(workload, 0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    table = {line.split()[0]: line.split()[1:3] for line in lines[:-1] if line.split()}
    for name, unit in run.END_TO_END_UNITS.items():
        assert name in table, name
        float(table[name][0])
        assert table[name][1] == unit
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_per_layer_metrics_and_predictions_hold(workload):
    out = smoke(workload, 1)
    assert out.returncode == 0, out.stderr
    assert "prediction held" in out.stdout
    assert "NOT HELD" not in out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = smoke("campaign", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_campaign_check_trips_on_each_perturbed_rate():
    wl = workloads.Campaign(ROOT)
    report = wl.op(0)
    assert wl.check(0, report).ok
    perturbations = {
        "gamma_a": CELL.gamma_a * 0.011,
        "gamma_b": -CELL.gamma_b * 0.011,
        "omega_ge": TWO_PI * 11e3,
        "phi_a": 0.011 * math.pi,
        "phi_b": -0.011 * math.pi,
    }
    for name, shift in perturbations.items():
        params = dict(report.params, **{name: report.params[name] + shift})
        check = wl.check(0, dataclasses.replace(report, params=params))
        assert not check.ok and name in check.reason
    assert not wl.check(0, dataclasses.replace(report, converged=False)).ok


def test_deembed_check_trips_on_perturbed_composition():
    wl = workloads.Deembed(ROOT)
    exact, series, reported = wl.op(2)
    check = wl.check(2, (exact, series, reported))
    assert check.ok and 0 < check.err < 0.05
    bad = exact.copy()
    bad[100, 1, 2] += 1e-8
    assert "compose_exact" in wl.check(2, (bad, series, reported)).reason
    bad = reported.copy()
    bad[7] *= 1.5
    assert "truncation_error" in wl.check(2, (exact, series, bad)).reason


def test_reference_composition_matches_ideal_lines():
    cells = np.array([workloads.model.cell_smatrix(w, CELL).entries
                      for w in CELL.omega_ge + TWO_PI * np.array([-3e6, 0.0, 2e6])])
    ideal = workloads.network.ideal_lines()
    assert np.max(np.abs(workloads.reference_compose(cells, ideal) - cells)) < 1e-12


def test_cli_check_trips_on_bad_fit_and_bad_truth(tmp_path):
    wl = workloads.Cli(tmp_path)
    params = {"gamma_a": CELL.gamma_a, "gamma_b": CELL.gamma_b, "omega_ge": CELL.omega_ge,
              "phi_a": CELL.phi_a, "phi_b": CELL.phi_b}
    truth = {"gamma_a_hz": CELL.gamma_a / TWO_PI, "gamma_b_hz": CELL.gamma_b / TWO_PI,
             "f_ge_hz": CELL.omega_ge / TWO_PI}
    good = workloads.PipelineResult(params, True, truth, {}, 1.0, [], [], {})
    assert wl.check(0, good).ok
    off = dict(params, gamma_b=CELL.gamma_b * 1.02)
    assert "gamma_b" in wl.check(0, dataclasses.replace(good, params=off)).reason
    wrong = dict(truth, f_ge_hz=truth["f_ge_hz"] + 1.0)
    assert "truth.json" in wl.check(0, dataclasses.replace(good, truth=wrong)).reason
    assert not wl.check(0, dataclasses.replace(good, params=None, error="fit exited")).ok


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, "p90 of 100 ops, 10 beyond")
    assert run.tail(list(range(1000)))[0] == 989
    assert run.tail(list(range(999)))[0] == 899
    assert run.tail(list(range(20)))[0] == 9
    value, label = run.tail([1.0, 2.0, 3.0])
    assert value == 3.0 and label.startswith("max")


def test_host_speed_scales_each_stretch_by_the_samples_around_it():
    ref = hostspeed.REFERENCE_S
    host = hostspeed.in_process()
    host.starts = [0.0, 1.0, 2.0]
    host.ends = [ref, 1.0 + ref, 2.0 + 3 * ref]  # the host slows to a third for the last
    assert host.measure(0.5, 0.6) == pytest.approx((0.1, 0.1))
    # cut at the sample taken at 1.0, which is left out; after it the mean sample is 2 ref
    raw, corrected = host.measure(0.5, 1.5)
    assert raw == pytest.approx(1.0 - ref)
    assert corrected == pytest.approx(0.5 + (0.5 - ref) / 2)
    # after the last sample only that one counts
    assert host.measure(3.0, 3.5)[1] == pytest.approx(0.5 / 3)
    stats = run.Stats()
    stats.intervals = [(0.5, 0.6, 0.65), (3.0, 3.3, 3.5)]
    stats.correct(host)
    assert stats.latencies == pytest.approx([0.1, 0.3])
    assert stats.corrected == pytest.approx([0.1, 0.1])
    assert stats.busy_s == pytest.approx(0.15 + 0.5 / 3)


def test_layer_metrics_busy_and_self_time_from_spans():
    # op 0: gen_spectrum (synth, 10 ms) calls gen_lines (synth, 2 ms) and
    # cell_coefficients (model, 3 ms over 401 points); compose_neumann calls
    # compose_exact once for a single point.
    spans = [
        ("synth.gen_spectrum", "synth", 0.000, 0.010, -1, 0, False, None),
        ("synth.gen_lines", "synth", 0.001, 0.003, 0, 0, False, None),
        ("model.cell_coefficients", "model", 0.004, 0.007, 0, 0, False, 401),
        ("model.t_through", "model", 0.004, 0.005, 2, 0, False, 401),
        ("network.compose_neumann", "network", 0.020, 0.030, -1, 0, False, None),
        ("network.compose_exact", "network", 0.021, 0.025, 4, 0, False, None),
    ]
    m = tracing.layer_metrics(spans, 1, 1, Counter(), [0.5], {})
    assert m["synth.gen_spectrum.self_ms"] == pytest.approx(7.0)
    assert m["model.calls"] == 1 and m["model.points"] == 401
    assert m["model.busy_ms"] == pytest.approx(3.0)
    assert m["network.busy_ms"] == pytest.approx(10.0)
    assert m["network.exact_per_point"] == 1.0
    assert m["cli.import_s"] == 0.5
