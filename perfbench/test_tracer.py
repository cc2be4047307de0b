"""Tests of the benchmark harness itself (not part of the program's test suite).

    python3 -m pytest -q perfbench
"""

import itertools
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, layer_breakdown, self_times  # noqa: E402
from workloads import LAYERS, UNTRACED, WORKLOADS  # noqa: E402


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def _toy_modules():
    """Two fake layers: `inner` defines work(); `outer` imports it by name."""
    inner = types.ModuleType("toy.inner")
    inner.__all__ = ["work", "Result"]

    class Result:
        iterations = 3

    def work():
        return Result()

    work.__module__ = inner.__name__
    inner.work, inner.Result = work, Result

    outer = types.ModuleType("toy.outer")
    outer.__all__ = ["drive"]
    outer.work = work  # as `from .inner import work` would bind it
    outer.TABLE = {"w": work}

    def drive():
        outer.work()
        outer.TABLE["w"]()
        return inner.work()

    drive.__module__ = outer.__name__
    outer.drive = drive
    return {"inner": inner, "outer": outer}


def test_install_rebinds_every_binding_and_uninstall_restores():
    modules = _toy_modules()
    original = modules["inner"].work
    tracer = Tracer(clock=_ticking_clock())
    tracer.install(modules)
    modules["outer"].drive()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer.drive", "inner.work", "inner.work", "inner.work"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert tracer.iterations["inner.work"] == 9
    tracer.uninstall()
    assert modules["outer"].work is original
    assert modules["outer"].TABLE["w"] is original
    assert modules["inner"].work is original


def test_self_times_subtract_direct_children_only():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["control_lab.synthesize_control", 1.0, 8.0, 0],
        ["waveop.control_to_modal", 2.0, 5.0, 1],
        ["waveop.control_to_modal", 5.5, 7.0, 1],
        ["geometry.eikonal_distance", 8.5, 9.0, 0],
    ]
    assert self_times(spans) == [10.0 - 7.0 - 0.5, 7.0 - 4.5, 3.0, 1.5, 0.5]


def test_self_times_and_remainder_add_up_to_wall():
    spans = [
        ["cli.run", 1.0, 4.0, -1],
        ["spectral.eigensolve", 1.5, 3.0, 0],
        ["spectral.project", 2.0, 2.5, 1],  # same layer, nested
        ["cli.run", 5.0, 9.0, -1],
        ["waveop.observe", 5.0, 9.0, 3],
    ]
    out = layer_breakdown(spans, wall_s=10.0)
    layer_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert layer_self + out["untraced_s"] == pytest.approx(10.0, abs=1e-12)
    assert out["untraced_s"] == pytest.approx(3.0)
    assert out["spectral.self_s"] == pytest.approx(1.5)
    assert out["cli.self_s"] == pytest.approx(1.5)
    assert out["cli.run.calls"] == 2 and out["cli.run.s"] == pytest.approx(7.0)


def test_traced_program_run_adds_up(tmp_path):
    """A real traced run: layer self times plus the remainder equal its wall time."""
    import importlib

    modules = {name: importlib.import_module(f"wavecontrol.{name}") for name in LAYERS}
    cli = modules["cli"]
    tracer = Tracer()
    tracer.install(modules, skip=UNTRACED)
    try:
        start = time.perf_counter()
        for sub in ("eikonal", "eigen", "observe"):
            assert cli.run(cli.ExperimentConfig(T=0.3), sub, out_dir=str(tmp_path / sub)) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    out = layer_breakdown(tracer.spans, wall)
    layer_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert layer_self + out["untraced_s"] == pytest.approx(wall, rel=1e-9)
    assert 0 <= out["untraced_s"] < wall
    assert out["cli.run.calls"] == 3
    # `observe` and `eigensolve` are reached through names cli imported
    assert out["waveop.observe.calls"] == 1
    assert out["spectral.eigensolve.calls"] == 2
    assert modules["cli"].observe is modules["waveop"].observe


def test_percentile_line_needs_ten_samples_beyond():
    assert "no percentile" in run.percentile_line([1.0] * 10, "s")
    line = run.percentile_line([float(i) for i in range(1, 21)], "s")
    assert "p50 10 s" in line and "(n=20)" in line


def test_reference_covers_every_call_with_a_tolerance():
    reference = checks.load_reference()
    for workload, calls in WORKLOADS.items():
        entries = reference[workload]
        assert set(entries) == {name for name, _, _ in calls}
        for entry in entries.values():
            for key, value in entry.get("summary", {}).items():
                if checks.is_number(value):
                    assert key in checks.TOLERANCES, key


def test_reference_check_rejects_a_wrong_answer(tmp_path):
    reference = checks.load_reference()
    entry = reference["interval_lab"]["spectrum_interval"]
    summary = dict(entry["summary"])
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    call = {"sub": "eigen", "status": 0, "error": None}
    assert checks.check_call(call, {}, entry, tmp_path) == ("ok", None)
    summary["lambda_1"] *= 1 + 1e-6
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    outcome, detail = checks.check_call(call, {}, entry, tmp_path)
    assert outcome == "failed" and "lambda_1" in detail


def test_metric_names_match_benchmark_json():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("BENCHMARK.json not present")
    bench = json.loads(path.read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    # square_sweep is left out of BENCHMARK.json (too long for its time budget)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for m in bench["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
    for m in bench["per_layer"]:
        assert run.PER_LAYER[m["name"]] == m["unit"]


def test_reference_seconds_integrates_the_sampled_speed():
    starts, costs = [0.0, 1.0, 3.0], [50e-6, 100e-6, 25e-6]  # speeds 1, 1/2, 2
    assert speed.REFERENCE_KERNEL_S == 50e-6
    assert speed.reference_seconds(0.5, 4.0, starts, costs) == pytest.approx(0.5 + 1.0 + 2.0)
    # the first sample's speed also covers the time before it
    assert speed.reference_seconds(-1.0, 0.5, starts, costs) == pytest.approx(1.5)
    assert speed.reference_seconds(1.5, 2.5, starts, costs) == pytest.approx(0.5)
