"""Every call of the benchmark's workloads, run in-process at seed 0 and
classified by the benchmark's own output check against its reference file,
so a change that moves a benchmarked summary fails here first."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wavecontrol import cli

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("checks"), _load("workloads")


def _benchmarked_workloads():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_workload(perfbench, workload, root):
    """Every call of the workload at seed 0, its artifacts under root; returns
    the count of each outcome and the failures."""
    checks, workloads = perfbench
    reference = checks.load_reference()[workload]
    outcomes, failures = {}, []
    for name, sub, overrides in workloads.WORKLOADS[workload]:
        out = root / name
        call = {"name": name, "sub": sub, "status": None, "error": None}
        try:
            call["status"] = cli.run(cli.ExperimentConfig(seed=0, **overrides), sub, out_dir=str(out))
        except Exception as exc:  # the harness records the type and first line
            lines = str(exc).splitlines()
            call["error"] = f"{type(exc).__name__}: {lines[0] if lines else ''}"
        outcome, detail = checks.check_call(call, overrides, reference.get(name, {}), out)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == "failed":
            failures.append(f"{name}: {detail}")
    return outcomes, failures


def _artifacts(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }


@pytest.mark.parametrize(
    "workload, expected",
    [("interval_lab", {"ok": 12}), ("square_bump", {"ok": 1, "refused": 4})],
)
def test_benchmark_calls_keep_their_reference_outcome(tmp_path, perfbench, workload, expected):
    """The workload runs twice in one process.  The second pass reads the
    domain, eigenpairs and sine table the first left in the memos, and gives
    the same outcomes and byte-identical artifacts (manifest.json excluded)."""
    assert workload in _benchmarked_workloads()
    first = _run_workload(perfbench, workload, tmp_path / "first")
    second = _run_workload(perfbench, workload, tmp_path / "second")
    assert first == second == (expected, [])
    cold, warm = _artifacts(tmp_path / "first"), _artifacts(tmp_path / "second")
    assert cold and sorted(cold) == sorted(warm)
    assert [name for name in cold if cold[name] != warm[name]] == []


def test_traced_run_ends_in_a_result_line_with_every_per_layer_metric():
    """The last line of a traced interval_lab run is the result the benchmark
    reads: correct, and with exactly the per-layer metrics BENCHMARK.json
    declares, so a counter that goes missing fails here first.  Every
    <layer>.<function>.s and .calls metric reads above zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interval_lab",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    # a traced public function that is renamed or leaves __all__ reads 0
    layers = _load("workloads").LAYERS
    traced = {
        name: metric["value"] for name, metric in result["metrics"].items()
        if name.split(".")[0] in layers and name.count(".") == 2
        and name.endswith((".s", ".calls"))
    }
    assert len(traced) == 23
    assert [name for name, value in traced.items() if not value > 0] == []
