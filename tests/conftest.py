import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wavecontrol import geometry, spectral, waveop

FIXTURES = Path(__file__).parent / "fixtures"

# acceptance tests register one line per criterion clause here; the terminal
# summary prints them all so every pass/fail is visible in one place
_ACCEPTANCE_LOG = []


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every process-wide memo, each module-level ``_LAST_*`` dict of
    the loaded wavecontrol modules (a module not loaded holds none), so
    every test that counts builds or measures memory sees a cold process,
    whatever ran before it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("wavecontrol."):
            for key, memo in vars(module).items():
                if key.startswith("_LAST_") and isinstance(memo, dict):
                    memo.clear()


@pytest.fixture(scope="session")
def baselines() -> dict:
    payload = json.loads((FIXTURES / "baselines.json").read_text())
    return {name: entry["value"] for name, entry in payload["entries"].items()}


@pytest.fixture(scope="session")
def interval_domain():
    return geometry.interval()


@pytest.fixture(scope="session")
def interval_basis(interval_domain):
    # fd backend throughout; the analytic backend is cross-checked separately
    return spectral.eigensolve(interval_domain, 64, backend="fd")


@pytest.fixture(scope="session")
def desk_basis(interval_domain):
    # auto backend, same construction scripts/freeze_baselines.py records
    return spectral.eigensolve(interval_domain, 64)


@pytest.fixture(scope="session")
def interval_distance(interval_domain):
    return geometry.eikonal_distance(interval_domain)


@pytest.fixture(scope="session")
def square_domain():
    return geometry.rectangle(shape=(129, 129))


@pytest.fixture(scope="session")
def square_basis(square_domain):
    return spectral.eigensolve(square_domain, 100, backend="fd")


@pytest.fixture(scope="session")
def small_domain():
    return geometry.interval(n=65)


@pytest.fixture(scope="session")
def small_basis(small_domain):
    return spectral.eigensolve(small_domain, 12, backend="fd")


@pytest.fixture(scope="session")
def broken_duality():
    """waveop.verify_duality with a wrong trapezoid rule, flat weights at the
    ends, on the observation side only: the negative control that the
    adjoint check must catch."""

    def check(f, y, basis):
        fac = waveop.modal_factors(basis, f.T, f.n_t - 1)
        wt = fac.wt.copy()
        wt[0] = wt[-1] = f.dt
        lhs = basis.h_inner(spectral.reconstruct(fac.pair(f.samples), basis), y)
        g = fac.expand(spectral.project(y, basis))
        rhs = replace(fac, wt=wt).inner(f.samples, g)
        return abs(lhs - rhs) / (np.sqrt(fac.inner(f.samples, f.samples)) * basis.h_norm(y))

    return check


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def acceptance_log():
    def record(criterion: int, label: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_LOG.append((criterion, label, bool(passed), detail))

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, label, passed, detail in sorted(_ACCEPTANCE_LOG):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {criterion:2d} [{status}] {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
