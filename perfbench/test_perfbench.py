"""Self-tests of the benchmark, on the short (small-grid) workloads.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from holderlab import fields, geometry, lab  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Pme1dSource, Pme2dBarenblatt, PParabolicWitness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One short pipeline per workload and its output, checked clean."""
    workdir = tmp_path_factory.mktemp("bench_out")
    result = {}
    for name, make in WORKLOADS.items():
        w = make(seed=1, short=True, workdir=workdir)
        out = w.run()
        info, failures = w.check(out)
        assert failures == [], (name, failures)
        result[name] = (w, out, info)
    return result


def _perturbed(field, delta):
    return fields.SpaceTimeField(field.grid, field.values + delta)


def _failures(w, out):
    return w.check(out)[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_solution_fails_a_check(outputs, name):
    w, out, _ = outputs[name]
    bad = dataclasses.replace(out, u=_perturbed(out.u, 0.05))
    assert _failures(w, bad)


@pytest.mark.parametrize("name", [Pme1dSource.name, PParabolicWitness.name])
def test_wrong_exponent_fails_a_check(outputs, name):
    w, out, _ = outputs[name]
    wrong = 0.4 if name == Pme1dSource.name else out.fit.exponent + 0.05
    bad = dataclasses.replace(out, fit=dataclasses.replace(out.fit, exponent=wrong))
    failures = _failures(w, bad)
    assert len(failures) == 1 and "exponent" in failures[0]


def test_broken_round_trip_fails(outputs):
    w, out, _ = outputs[Pme2dBarenblatt.name]
    loaded = out.extra["loaded"]
    values = loaded.values.copy()
    values[1, 1, 1] = np.nextafter(values[1, 1, 1], np.inf)
    bad = dataclasses.replace(out, extra={**out.extra,
                                          "loaded": fields.SpaceTimeField(loaded.grid, values)})
    assert _failures(w, bad) == ["save/load round trip is not bitwise equal"]


def test_smallness_result_is_rechecked(outputs):
    w, out, _ = outputs[PParabolicWitness.name]
    small = out.extra["smallness"]
    bad_v = dataclasses.replace(small, v=_perturbed(small.v, 1e-3))
    bad = dataclasses.replace(out, extra={"smallness": bad_v})
    assert _failures(w, bad) == ["smallness norms do not match the returned fields"]


def test_seeds_are_mirror_images(tmp_path):
    errors = []
    for seed in (1, 2):
        w = PParabolicWitness(seed, short=True, workdir=tmp_path)
        info, failures = w.check(w.run())
        assert failures == []
        errors.append((info["solution_err"], info["exponent_err"]))
    assert PParabolicWitness(1, short=True).center == -PParabolicWitness(2, short=True).center
    np.testing.assert_allclose(errors[0], errors[1], rtol=1e-9)


def test_tracer_accounts_for_the_pipeline_and_restores_bindings(tmp_path):
    w = PParabolicWitness(seed=0, short=True, workdir=tmp_path)
    originals = (geometry._region_cells, lab._region_cells, lab.sup_oscillation,
                 fields.SpaceTimeField.interp)
    tracer = Tracer()
    tracer.install()
    try:
        assert lab.sup_oscillation is geometry.sup_oscillation
        assert lab._region_cells is geometry._region_cells is fields._region_cells
        assert lab.sup_oscillation is not originals[2]
        with tracer.span("pipeline"):
            w.run(tracer)
    finally:
        tracer.uninstall()
    assert (geometry._region_cells, lab._region_cells, lab.sup_oscillation,
            fields.SpaceTimeField.interp) == originals
    summary = tracer.summary()
    root = summary.pop("pipeline")
    self_sum = root["self_s"] + sum(row["self_s"] for row in summary.values())
    assert self_sum == pytest.approx(root["total_s"], rel=1e-9)
    assert summary["geometry.apply_scaling"]["calls"] == 120  # 60 bisection steps


def _run_bench(cwd, workload, trace, seed=5):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    first, second = (_run_bench(tmp_path, name, trace=1) for _ in range(2))
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "MB")}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["lab.ladder_levels"] >= 4


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = _run_bench(tmp_path, Pme1dSource.name, trace=0)
    assert result["correct"] and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", Pme1dSource.name,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
