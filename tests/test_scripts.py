import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import wavecontrol

SCRIPTS = Path(__file__).parent.parent / "scripts"
FIXTURE = Path(__file__).parent / "fixtures" / "baselines.json"


@pytest.fixture(scope="module")
def compare_artifacts():
    spec = importlib.util.spec_from_file_location(
        "compare_artifacts", SCRIPTS / "compare_artifacts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_artifacts_reports_each_file(tmp_path, capsys, compare_artifacts):
    """identical, a numeric change, a text change and a one-sided file, with
    manifest.json skipped; any difference exits 1."""
    same = {"a/summary.json": '{"x": 1.5, "y": [2, 3]}', "a/manifest.json": '{"t": 0.1}'}
    old = _tree(tmp_path / "old", same)
    assert compare_artifacts.main([str(old), str(_tree(tmp_path / "same", same))]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a/summary.json: identical",
        "1 of 1 files identical (manifest.json skipped)",
    ]
    moved = {
        "a/summary.json": '{"x": 1.5, "y": [2, 3.03]}',
        "a/manifest.json": '{"t": 0.2}',
        "b.csv": "t,g\r\n0,1\r\n",
    }
    _tree(old, {"b.csv": "t,g\r\n0,-0\r\n", "c.csv": "x\r\n"})
    assert compare_artifacts.main([str(old), str(_tree(tmp_path / "new", moved))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a/summary.json: largest relative change 0.0099",
        "b.csv: largest relative change 1",
        "c.csv: only in OLD",
        "0 of 3 files identical (manifest.json skipped)",
    ]


def test_compare_artifacts_spellings(compare_artifacts):
    compare = compare_artifacts.compare
    assert compare(b"0,1e0", b"-0,1.0") == "largest relative change 0"
    assert compare(b"g,1", b"h,1") == "text differs outside the numeric cells"
    assert compare(b"1,2", b"1,2,3") == "text differs outside the numeric cells"
    assert compare(b"[0]", b"[NaN]") == "largest relative change inf"


def test_freeze_baselines_writes_every_fixture_entry(tmp_path):
    """The script writes the fixture's entry names to --out, and the support
    bound it computes is the fixture's to the last bit.  The other values are
    not compared: several predate later numerical changes, and the script no
    longer reproduces them."""
    out = tmp_path / "baselines.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "freeze_baselines.py"), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    written = json.loads(out.read_text())["entries"]
    fixture = json.loads(FIXTURE.read_text())["entries"]
    assert len(fixture) == 8 and sorted(written) == sorted(fixture)
    bound = written["half_out_bump_support_bound"]["value"]
    assert bound == fixture["half_out_bump_support_bound"]["value"] == 0.14316315929180287


def test_ledger_counts_the_package():
    """The ledger's line total is wc -l over the modules, its public names
    are the imported modules' __all__, and its settable values take the
    defaulted init fields and parameters of public code only."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ledger.py")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    package = Path(wavecontrol.__file__).parent
    total = sum(p.read_text().count("\n") for p in package.glob("*.py"))
    assert f"  {total:5d}  total" in out

    def section(title):
        start = next(i for i, line in enumerate(out) if line.startswith(title + ": "))
        count = int(out[start].split(": ")[1])
        assert all(line.startswith("  ") for line in out[start + 1 : start + 1 + count])
        return [line.strip() for line in out[start + 1 : start + 1 + count]]

    expect = []
    for p in sorted(package.glob("*.py")):
        if p.stem != "__init__":
            module = importlib.import_module(f"wavecontrol.{p.stem}")
            expect += [f"{p.stem}.{name}" for name in module.__all__]
    assert section("public names") == expect
    assert "spectral.SpectralBasis" in section("types") and "cli._Draws" in section("types")
    settable = section("settable values")
    assert {
        "cli.ExperimentConfig.seed",
        "cli.run(out_dir)",
        "geometry.FilledRegion.mass_outside(band)",
    } <= set(settable)
    # an init=False field, a field with no default and a private helper are not settable
    assert not {"spectral.SpectralBasis.sines", "control_lab.SynthesisProblem.T"} & set(settable)
    assert not [name for name in settable if "._" in name]
