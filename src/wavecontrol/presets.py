"""Named target and control presets shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .geometry import DomainSpec
from .spectral import SpectralBasis
from .waveop import DEFAULT_TIME_STEPS, BoundaryControl, _bump, control_to_state, time_grid

__all__ = [
    "bump",
    "center_bump_target",
    "mode_target",
    "smooth_interior_target",
    "ramp_target",
    "pulse_control",
    "two_sided_pulse_control",
    "stored_reference_control",
    "in_range_target",
    "TARGET_PRESETS",
]


def bump(s, sharpness: float = 4.0):
    """Even bump exp(-sharpness/(1-s^2)) on (-1, 1), exact zero outside.

    Larger sharpness flattens the bump and pushes its spectral tail down,
    which the near-zero trace checks rely on.
    """
    out = _bump(s, sharpness) * np.exp(sharpness)
    return out if np.ndim(out) else float(out)


def center_bump_target(
    domain: DomainSpec, center: float = 0.5, halfwidth: float = 0.05, sharpness: float = 6.0
) -> np.ndarray:
    """Velocity bump centered in the domain, supported in [0.45, 0.55] by default."""
    r = np.sqrt(sum((X - center) ** 2 for X in domain.grids()))
    return bump(r / halfwidth, sharpness)


def mode_target(basis: SpectralBasis, k: int = 0) -> np.ndarray:
    return basis.modes[k].copy()


def smooth_interior_target(domain: DomainSpec) -> np.ndarray:
    """Smooth target with zero boundary values and mild modal content."""
    if domain.dimension == 1:
        x = domain.axes[0]
        lo, hi = domain.extents[0]
        s = (x - lo) / (hi - lo)
        return np.sin(np.pi * s) * (1.0 + 0.5 * np.sin(2 * np.pi * s))
    X, Y = domain.grids()
    (lx0, lx1), (ly0, ly1) = domain.extents
    sx = (X - lx0) / (lx1 - lx0)
    sy = (Y - ly0) / (ly1 - ly0)
    return np.sin(np.pi * sx) * np.sin(np.pi * sy) * (1.0 + 0.3 * np.sin(2 * np.pi * sx))


def ramp_target(domain: DomainSpec) -> np.ndarray:
    """Linear ramp 1 - x, nonzero on the boundary (1D)."""
    if domain.dimension != 1:
        raise ValueError("ramp target is a 1D preset")
    x = domain.axes[0]
    lo, hi = domain.extents[0]
    return 1.0 - (x - lo) / (hi - lo)


def _pulse_samples(times, support, sharpness):
    t0, t1 = support
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    return bump((times - mid) / half, sharpness)


def pulse_control(
    T: float,
    n_boundary: int,
    support: tuple = (0.1, 0.5),
    sharpness: float = 4.0,
    n_steps: int = DEFAULT_TIME_STEPS,
    row: int = 0,
) -> BoundaryControl:
    """Smooth pulse on one boundary row, zero elsewhere."""
    times = time_grid(T, n_steps)
    samples = np.zeros((n_boundary, n_steps + 1))
    samples[row] = _pulse_samples(times, support, sharpness)
    return BoundaryControl(samples=samples, T=T)


def two_sided_pulse_control(
    T: float,
    n_boundary: int,
    support: tuple = (0.05, 0.25),
    sharpness: float = 4.0,
    n_steps: int = DEFAULT_TIME_STEPS,
) -> BoundaryControl:
    """The same pulse on every boundary row."""
    times = time_grid(T, n_steps)
    samples = np.tile(_pulse_samples(times, support, sharpness), (n_boundary, 1))
    return BoundaryControl(samples=samples, T=T)


def stored_reference_control(
    T: float, n_boundary: int, n_steps: int = DEFAULT_TIME_STEPS, rows: tuple = (0, -1)
) -> BoundaryControl:
    """Fixed smooth control on two boundary rows, used to manufacture in-range targets."""
    times = time_grid(T, n_steps)
    s = times / T
    profile = np.sin(np.pi * s) ** 3 * (1.0 + 0.4 * np.cos(3 * np.pi * s))
    samples = np.zeros((n_boundary, n_steps + 1))
    samples[rows[0]] = profile
    samples[rows[1]] = -0.6 * profile
    return BoundaryControl(samples=samples, T=T)


def in_range_target(
    basis: SpectralBasis, T: float, n_steps: int = DEFAULT_TIME_STEPS
) -> np.ndarray:
    """Final snapshot of the stored reference control: in range of the n_steps map."""
    # the middles of two opposite faces: rows 0 and -1 are the 2D corners,
    # whose conormal traces vanish, so a control there reaches nothing
    rows = basis.domain.face_midpoint_rows()
    g = stored_reference_control(T, len(basis.boundary_weights), n_steps=n_steps, rows=rows)
    return control_to_state(g, basis)


# target name -> maker(basis, T, n_steps), the run's basis, horizon and steps
TARGET_PRESETS = {
    "center_bump": lambda basis, T, n_steps: center_bump_target(basis.domain),
    "first_mode": lambda basis, T, n_steps: mode_target(basis, 0),
    "smooth_interior": lambda basis, T, n_steps: smooth_interior_target(basis.domain),
    "ramp": lambda basis, T, n_steps: ramp_target(basis.domain),
    "in_range": in_range_target,
}
