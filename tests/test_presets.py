import numpy as np
import pytest

from wavecontrol import presets


def test_bump_support_and_peak():
    s = np.linspace(-2, 2, 401)
    vals = presets.bump(s)
    assert np.all(vals[np.abs(s) >= 1.0] == 0.0)
    assert presets.bump(0.0) == pytest.approx(1.0)
    assert np.all(vals >= 0.0)


def test_center_bump_vanishes_outside_halfwidth(interval_domain):
    y = presets.center_bump_target(interval_domain)
    x = interval_domain.axes[0]
    assert np.all(y[np.abs(x - 0.5) >= 0.05] == 0.0)
    assert y.max() > 0.9


def test_center_bump_2d_radial(square_domain):
    y = presets.center_bump_target(square_domain, halfwidth=0.2)
    assert y.shape == tuple(square_domain.shape)
    # peak at the center node, zero on the boundary ring
    assert y[64, 64] == y.max()
    assert np.all(y[0, :] == 0.0)


def test_ramp_rejects_2d(square_domain):
    with pytest.raises(ValueError, match="1D"):
        presets.ramp_target(square_domain)


def test_smooth_interior_zero_on_boundary(interval_domain, square_domain):
    y1 = presets.smooth_interior_target(interval_domain)
    assert y1[0] == pytest.approx(0.0, abs=1e-14)
    assert y1[-1] == pytest.approx(0.0, abs=1e-14)
    y2 = presets.smooth_interior_target(square_domain)
    for edge in (y2[0, :], y2[-1, :], y2[:, 0], y2[:, -1]):
        assert np.abs(edge).max() < 1e-13


def test_pulse_control_rows_and_band():
    f = presets.pulse_control(0.75, 2, support=(0.1, 0.5), n_steps=128, row=1)
    assert f.samples.shape == (2, 129)
    assert np.all(f.samples[0] == 0.0)
    times = f.times
    assert np.all(f.samples[1, times <= 0.1] == 0.0)
    assert np.all(f.samples[1, times >= 0.5] == 0.0)


def test_two_sided_pulse_is_row_uniform():
    f = presets.two_sided_pulse_control(0.3, 3, n_steps=64)
    assert f.samples.shape == (3, 65)
    assert np.array_equal(f.samples[0], f.samples[1])
    assert np.array_equal(f.samples[0], f.samples[2])


def test_stored_reference_control_endpoints():
    f = presets.stored_reference_control(0.75, 2, n_steps=256)
    # starts and ends at rest so it sits in every control class's closure
    assert f.samples[:, 0] == pytest.approx(0.0)
    assert f.samples[:, -1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(f.samples).max() > 0.5


def test_in_range_target_matches_forward_map(desk_basis):
    from wavecontrol.waveop import control_to_state

    y = presets.in_range_target(desk_basis, 0.75)
    f = presets.stored_reference_control(0.75, 2)
    u = control_to_state(f, desk_basis)
    np.testing.assert_allclose(y, u, atol=1e-14)


def test_in_range_target_2d_is_reached(square_basis):
    # the reference control drives the middles of the x faces: at the corner
    # rows the conormal traces vanish and the target was the zero state
    from wavecontrol.control_lab import SynthesisProblem, synthesize_control

    nodes = square_basis.domain.boundary_nodes()
    assert nodes[list(square_basis.domain.face_midpoint_rows())].tolist() == [[0, 64], [128, 64]]
    y = presets.in_range_target(square_basis, 0.75)
    assert square_basis.h_norm(y) > 1e-3
    res = synthesize_control(SynthesisProblem(target=y, T=0.75), square_basis)
    assert res.relative_residual <= 1e-6
    hist = res.residual_history
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])  # verify's reading


def test_registry_builds_every_target(desk_basis):
    domain = desk_basis.domain
    for name, maker in presets.TARGET_PRESETS.items():
        y = maker(desk_basis, 0.75, 1024)
        assert isinstance(y, np.ndarray) and y.dtype == float, name
        assert y.shape == tuple(domain.shape), name
        assert np.isfinite(y).all(), name
