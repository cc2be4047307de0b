import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecontrol import control_lab, geometry, presets, regularizer, spectral, waveop


def test_boundary_control_validation():
    with pytest.raises(ValueError, match="horizon"):
        waveop.BoundaryControl(samples=np.zeros((2, 8)), T=0.0)
    with pytest.raises(ValueError, match="two"):
        waveop.BoundaryControl(samples=np.zeros((2, 1)), T=1.0)
    with pytest.raises(ValueError, match="finite"):
        waveop.BoundaryControl(samples=np.full((2, 8), np.nan), T=1.0)
    f = waveop.BoundaryControl(samples=np.zeros(9), T=1.0)
    assert f.samples.shape == (1, 9)
    assert f.dt == pytest.approx(1.0 / 8)


def test_modal_factors_memoized_read_only():
    """One factor object per basis, horizon and step count, holding the
    basis's arrays and read-only sines."""
    basis = spectral.eigensolve(geometry.interval(n=65), 12)
    fac = waveop.modal_factors(basis, 0.75, 256)
    direct = waveop._sin_factors(basis.lambdas, waveop.time_grid(0.75, 256), 0.75)
    assert np.array_equal(fac.V, direct)
    assert np.array_equal(fac.wt, waveop.time_weights(257, 0.75 / 256))
    assert fac.U is basis.conormal_traces and fac.bw is basis.boundary_weights
    assert waveop.modal_factors(basis, 0.75, 256) is fac
    assert waveop.modal_factors(basis, 0.75, 128) is not fac
    assert not fac.V.flags.writeable
    with pytest.raises(ValueError):
        fac.V[0, 0] = 1.0
    # a basis derived by replace starts with no factors of its own
    assert replace(basis, lambdas=2 * basis.lambdas).sines == {}


def test_time_weights_sum():
    wt = waveop.time_weights(11, 0.1)
    assert wt.sum() == pytest.approx(1.0)
    assert wt[0] == wt[-1] == pytest.approx(0.05)


def test_f_inner_matches_loop(interval_basis, rng):
    f = waveop.random_control(interval_basis, 0.5, rng, n_steps=16)
    g = waveop.random_control(interval_basis, 0.5, rng, n_steps=16)
    dt = 0.5 / 16
    wt = waveop.time_weights(17, dt)
    w = interval_basis.boundary_weights
    manual = sum(
        w[i] * wt[t] * f.samples[i, t] * g.samples[i, t]
        for i in range(2)
        for t in range(17)
    )
    assert waveop.f_inner(f.samples, g.samples, w, dt) == pytest.approx(manual)


def test_solve_dual_terminal_conditions(interval_basis):
    y = presets.mode_target(interval_basis, 2)
    T = 0.6
    snaps = waveop.solve_dual(y, T, interval_basis, times=np.array([0.0, T]))
    # dual solution vanishes at t = T; its velocity there equals y
    assert interval_basis.h_norm(snaps[-1]) <= 1e-12
    lam = interval_basis.lambdas[2]
    # closed form at t=0: -sin(sqrt(lam) T)/sqrt(lam) e_2
    expect = -np.sin(np.sqrt(lam) * T) / np.sqrt(lam) * interval_basis.modes[2]
    np.testing.assert_allclose(snaps[0], expect, atol=1e-12)


def test_observe_single_mode_closed_form(interval_basis):
    T = 0.75
    k = 0
    y = presets.mode_target(interval_basis, k)
    g = waveop.observe(y, T, interval_basis)
    lam = interval_basis.lambdas[k]
    expect = (
        interval_basis.conormal_traces[k][:, None]
        * np.sin(np.sqrt(lam) * (waveop.time_grid(T) - T))[None, :]
        / np.sqrt(lam)
    )
    np.testing.assert_allclose(g, expect, atol=1e-12)


@pytest.mark.parametrize("basis_name", ["desk", "square_33"])
def test_factor_kernels_match_full_contractions(request, rng, basis_name):
    """control_to_modal and observe against the contractions written out in full."""
    if basis_name == "desk":
        basis = request.getfixturevalue("desk_basis")
    else:
        basis = spectral.eigensolve(geometry.rectangle(shape=(33, 33)), 100, backend="fd")
    T = 0.75
    f = waveop.random_control(basis, T, rng, n_steps=256)
    roots = np.sqrt(basis.lambdas)
    S = np.sin(np.outer(roots, f.times - T)) / roots[:, None]
    wt = waveop.time_weights(f.n_t, f.dt)
    expect = np.einsum(
        "gt,kg,kt,g,t->k", f.samples, basis.conormal_traces, S, basis.boundary_weights, wt
    )
    got = waveop.control_to_modal(f, basis)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    y = waveop.random_state(basis, rng)
    alphas = spectral.project(y, basis)
    expect = np.einsum("k,kg,kt->gt", alphas, basis.conormal_traces, S)
    got = waveop.observe(y, T, basis, n_steps=256)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("basis_name", ["desk", "square_33"])
def test_factors_adjoint_and_gramian(request, rng, basis_name):
    """expand is the F-adjoint of pair, and pair(expand(c)) is the Gramian times c."""
    if basis_name == "desk":
        basis = request.getfixturevalue("desk_basis")
    else:
        basis = spectral.eigensolve(geometry.rectangle(shape=(33, 33)), 100, backend="fd")
    fac = waveop.modal_factors(basis, 0.75, 256)
    U, V, bw, wt = fac.U, fac.V, fac.bw, fac.wt
    c = rng.standard_normal(basis.n_modes)
    g = rng.standard_normal(U.shape[1:] + V.shape[1:])
    lhs, rhs = fac.inner(fac.expand(c), g), c @ fac.pair(g)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    gramian = ((U * bw) @ U.T) * ((V * wt) @ V.T)
    expect = gramian @ c
    got = fac.pair(fac.expand(c))
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
    # a replaced factor is paired with its own weighted copy, not the cached one
    doubled = replace(fac, U=2.0 * U).pair(g)
    assert np.abs(doubled - 2.0 * fac.pair(g)).max() <= 1e-12 * np.abs(doubled).max()


@pytest.mark.parametrize("basis_name", ["desk", "square_33"])
def test_f_product_matches_full_contraction(request, rng, basis_name):
    """Factors.inner and f_inner against the four-operand contraction."""
    if basis_name == "desk":
        basis = request.getfixturevalue("desk_basis")
    else:
        basis = spectral.eigensolve(geometry.rectangle(shape=(33, 33)), 100, backend="fd")
    T, n_steps = 0.75, 256
    fac = waveop.modal_factors(basis, T, n_steps)
    f = rng.standard_normal(fac.U.shape[1:] + fac.V.shape[1:])
    g = rng.standard_normal(f.shape)
    expect = np.einsum("gt,gt,g,t->", f, g, fac.bw, fac.wt)
    assert abs(fac.inner(f, g) - expect) <= 1e-14 * abs(expect)
    assert abs(waveop.f_inner(f, g, fac.bw, T / n_steps) - expect) <= 1e-14 * abs(expect)


def test_pair_allocates_no_time_axis_temporary(desk_basis, rng):
    """pair contracts the time axis inside its GEMM: no (J, n_t) temporary."""
    fac = waveop.modal_factors(desk_basis, 0.75, waveop.DEFAULT_TIME_STEPS)
    J, n_t = fac.V.shape
    g = rng.standard_normal((fac.U.shape[1], n_t))
    fac.pair(g)  # build the cached weighted factors outside the trace
    tracemalloc.start()
    try:
        fac.pair(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * J * n_t * 8


def test_dalembert_traveling_pulse(interval_domain, interval_basis):
    # left-end control, T short enough that the front never reflects
    T = 0.75
    f = presets.pulse_control(T, 2, support=(0.1, 0.5), n_steps=1024, row=0)
    u = waveop.control_to_state(f, interval_basis)
    x = np.linspace(0, 1, 513)
    expect = presets._pulse_samples(T - x, (0.1, 0.5), 4.0)
    err = interval_basis.h_norm(u - expect) / interval_basis.h_norm(expect)
    assert err <= 1e-2


def test_duality_random_pairs(interval_basis, rng):
    worst = 0.0
    for _ in range(10):
        f = waveop.random_control(interval_basis, 0.75, rng)
        y = waveop.random_state(interval_basis, rng)
        worst = max(worst, waveop.verify_duality(f, y, interval_basis))
    assert worst <= 1e-12


def test_duality_negative_control(interval_basis, rng, broken_duality):
    f = waveop.random_control(interval_basis, 0.75, rng)
    y = waveop.random_state(interval_basis, rng)
    assert waveop.verify_duality(f, y, interval_basis) <= 1e-12
    assert broken_duality(f, y, interval_basis) > 1e-12


def test_duality_2d(square_basis, rng):
    f = waveop.random_control(square_basis, 0.4, rng, n_steps=256)
    y = waveop.random_state(square_basis, rng)
    assert waveop.verify_duality(f, y, square_basis) <= 1e-12


def test_duality_builds_one_factor_object(interval_basis, rng, monkeypatch, broken_duality):
    """Both sides of the identity come from one modal_factors build per call."""
    built = []
    real = waveop.modal_factors

    def counting(*args):
        built.append(args[1:])
        return real(*args)

    monkeypatch.setattr(waveop, "modal_factors", counting)
    f = waveop.random_control(interval_basis, 0.75, rng, n_steps=256)
    y = waveop.random_state(interval_basis, rng)
    for check in (waveop.verify_duality, broken_duality):
        built.clear()
        check(f, y, interval_basis)
        assert built == [(0.75, 256)]
    one_row = waveop.BoundaryControl(samples=f.samples[:1], T=0.75)
    with pytest.raises(ValueError, match="boundary rows"):
        waveop.verify_duality(one_row, y, interval_basis)


def test_fd_oracle_cfl_guard(interval_domain):
    f = waveop.BoundaryControl(samples=np.zeros((2, 5)), T=1.0)  # dt = 0.25
    with pytest.raises(ValueError, match="step"):
        waveop.fd_oracle_forward(f, interval_domain)


@pytest.mark.parametrize(
    "domain, eig_max",
    [
        (geometry.interval(n=33, a=lambda x: 1.0 + x), 2.0),
        (
            geometry.rectangle(
                shape=(17, 9),
                extents=((0.0, 1.0), (0.0, 2.0)),
                a11=2.0,
                a22=lambda X, Y: 1.0 + X * Y,
            ),
            3.0,
        ),
    ],
    ids=["1d", "2d"],
)
def test_fd_oracle_cfl_guard_at_the_bound(domain, eig_max):
    # dt <= h_min / sqrt(d * max eigenvalue) is stable, and just past it is refused
    limit = min(domain.spacings) / np.sqrt(domain.dimension * eig_max)
    samples = np.zeros((len(domain.boundary_nodes()), 9))
    with pytest.raises(ValueError, match="stability bound"):
        waveop.fd_oracle_forward(waveop.BoundaryControl(samples, T=8 * 1.001 * limit), domain)
    u = waveop.fd_oracle_forward(waveop.BoundaryControl(samples, T=8 * 0.999 * limit), domain)
    assert np.all(u == 0.0)


def test_fd_oracle_cfl_guard_mixed_coefficients():
    # eigenvalues of [[1, 0.5], [0.5, 1]] are 0.5 and 1.5; a step below the
    # bound passes the guard and reaches the operator, which has no a12 term
    domain = geometry.rectangle(shape=(9, 9), a11=1.0, a12=0.5, a22=1.0)
    limit = min(domain.spacings) / np.sqrt(2 * 1.5)
    samples = np.zeros((len(domain.boundary_nodes()), 9))
    with pytest.raises(ValueError, match="stability bound"):
        waveop.fd_oracle_forward(waveop.BoundaryControl(samples, T=8 * 1.001 * limit), domain)
    with pytest.raises(NotImplementedError):
        waveop.fd_oracle_forward(waveop.BoundaryControl(samples, T=8 * 0.999 * limit), domain)


def test_fd_oracle_matches_transposition(interval_domain, interval_basis):
    T = 0.75
    f = presets.stored_reference_control(T, 2, n_steps=1024)
    u_modal = waveop.control_to_state(f, interval_basis)
    u_fd = waveop.fd_oracle_forward(f, interval_domain)
    rel = interval_basis.h_norm(
        u_modal - u_fd
    ) / interval_basis.h_norm(u_fd)
    assert rel <= 2e-2


def test_fd_oracle_matches_transposition_2d():
    # sin^2(pi x) pulse on the y = 0 edge; the leapfrog and the 400-mode
    # spectral forward map share the operator, so their gap is the stepping
    # and truncation error and shrinks with the grid
    T, n_steps = 0.75, 2048
    rels = []
    for n in (33, 65):
        dom = geometry.rectangle(shape=(n, n))
        basis = spectral.eigensolve(dom, 400, backend="fd")
        nodes = dom.boundary_nodes()
        edge = nodes[:, 1] == 0
        pulse = presets._pulse_samples(np.linspace(0.0, T, n_steps + 1), (0.0, 0.5), 4.0)
        samples = np.zeros((len(nodes), n_steps + 1))
        samples[edge] = np.outer(np.sin(np.pi * dom.axes[0][nodes[edge, 0]]) ** 2, pulse)
        f = waveop.BoundaryControl(samples=samples, T=T)
        u_fd = waveop.fd_oracle_forward(f, dom)
        u_modal = waveop.control_to_state(f, basis)
        rels.append(basis.h_norm(u_modal - u_fd) / basis.h_norm(u_fd))
    assert rels[1] <= 4e-2
    assert rels[1] / rels[0] <= 0.35


def test_support_violation_zero_after_fill(interval_domain, interval_basis):
    T = 0.75
    f = presets.stored_reference_control(T, 2, n_steps=1024)
    u = waveop.control_to_state(f, interval_basis)
    region = geometry.filled_subdomain(interval_domain, geometry.eikonal_distance(interval_domain), T)
    v = waveop.support_violation(u, region, band=0.0)
    assert v == 0.0  # horizon beyond the filling time covers everything


def test_support_violation_short_horizon(interval_domain, interval_basis):
    T = 0.3
    f = presets.pulse_control(T, 2, support=(0.05, 0.25), n_steps=1024)
    u = waveop.control_to_state(f, interval_basis)
    region = geometry.filled_subdomain(interval_domain, geometry.eikonal_distance(interval_domain), T)
    band = 2 * max(interval_domain.spacings) + 2 * T / 1024
    v = waveop.support_violation(u, region, band)
    assert v <= 1e-3


def test_random_smooth_control_support_and_regularity(interval_basis, rng):
    T = 0.75
    f = waveop.random_smooth_control(
        interval_basis, T, rng, support=(0.075, T), n_harmonics=8
    )
    pre = f.times < 0.075
    assert np.abs(f.samples[:, pre]).max() == 0.0
    assert np.abs(f.samples[:, -1]).max() == 0.0
    # two discrete derivatives stay bounded: no sample-scale roughness
    d2 = np.diff(f.samples, n=2, axis=1) / f.dt**2
    scale = np.abs(f.samples).max()
    assert np.abs(d2).max() <= 1e4 * scale


def test_one_bump_core_reproduces_the_three_profiles_it_replaced():
    """presets.bump, the mollifier profile and random_smooth_control's window
    are the one bump core times a constant, equal to the expressions each
    used to write out, not merely close."""
    s = np.concatenate([np.random.default_rng(29).uniform(-1.5, 1.5, 200_000), [-1.0, 0.0, 1.0]])
    inside = np.abs(s) < 1.0
    si = s[inside]

    def on_support(values):
        out = np.zeros_like(s)
        out[inside] = values
        return out

    for k in (1.0, 4.0, 6.0):
        old_presets = on_support(np.exp(-k / (1.0 - si * si)) * np.exp(k))
        assert np.array_equal(waveop._bump(s, k) * np.exp(k), old_presets)
        assert np.array_equal(presets.bump(s, k), old_presets)
    old_mollifier = on_support(np.exp(-1.0 / (1.0 - si * si)))
    assert np.array_equal(waveop._bump(s, 1.0), old_mollifier)
    assert np.array_equal(
        regularizer.bump_profile(s), regularizer.bump_normalization() * old_mollifier
    )
    old_window = on_support(np.exp(-1.0 / (1.0 - si**2)) * np.e)
    assert np.array_equal(waveop._bump(s, 1.0) * np.e, old_window)
    for x in (-1.0, -0.5, 0.0, 0.3, 1.0, 2.0):
        assert type(waveop._bump(x, 1.0)) is float
        assert type(presets.bump(x)) is float
        assert presets.bump(x) == presets.bump(np.array([x]))[0]


def test_random_smooth_control_bad_support(interval_basis, rng):
    with pytest.raises(ValueError, match="support"):
        waveop.random_smooth_control(interval_basis, 0.5, rng, support=(0.4, 0.2))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_duality_property(seed, small_basis):
    r = np.random.default_rng(seed)
    f = waveop.random_control(small_basis, 0.5, r, n_steps=64)
    y = waveop.random_state(small_basis, r)
    assert waveop.verify_duality(f, y, small_basis) <= 1e-12


# the producers of grid states, and the observation, on a control f and a state y of one basis
_STATE_PRODUCERS = {
    "control_to_state": lambda basis, f, y: waveop.control_to_state(f, basis),
    "regularize_state": lambda basis, f, y: regularizer.regularize_state(y, 0.05, basis),
    "lifted_final_state": lambda basis, f, y: control_lab.lifted_final_state(f, basis),
    "fd_oracle_forward": lambda basis, f, y: waveop.fd_oracle_forward(f, basis.domain),
    "random_state": lambda basis, f, y: waveop.random_state(basis, np.random.default_rng(1)),
    "observe": lambda basis, f, y: waveop.observe(y, 0.5, basis, n_steps=64),
}


@pytest.mark.parametrize("name", sorted(_STATE_PRODUCERS))
def test_states_and_traces_are_plain_arrays(small_basis, name):
    """A state is a float array of the domain's shape; an observation is the
    (n_boundary, n_steps + 1) array of its samples."""
    rng = np.random.default_rng(5)
    f = waveop.random_control(small_basis, 0.5, rng, n_steps=64)
    y = waveop.random_state(small_basis, rng)
    out = _STATE_PRODUCERS[name](small_basis, f, y)
    assert isinstance(out, np.ndarray) and out.dtype == float
    expect = (2, 65) if name == "observe" else tuple(small_basis.domain.shape)
    assert out.shape == expect


def test_state_csv_1d(tmp_path, interval_domain, interval_basis):
    u = np.linspace(0, 1, 513)
    path = tmp_path / "state.csv"
    waveop.write_state_csv(path, interval_domain, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 514


def test_trace_csv(tmp_path, interval_basis):
    path = tmp_path / "trace.csv"
    waveop.write_trace_csv(path, np.ones((2, 5)), 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma_id,t,g"
    assert len(lines) == 1 + 2 * 5


_EDGE_ROWS = np.array(
    [
        [0.0, -0.0, 5e-324, 1e-300, -1.5],
        [1.5e300, np.pi, -1.0 / 3.0, 12345678901234567.0, 1e-7],
        [0.1, 0.2, 0.30000000000000004, -2.0, 7.0],
    ]
)


def _twelve_rows():
    # two-digit gamma_ids, with the edge values in rows 10 and 11
    samples = np.random.default_rng(3).standard_normal((12, 5))
    samples[10:] = _EDGE_ROWS[:2]
    return samples


def test_trace_csv_matches_csv_writer(tmp_path):
    for samples in (_EDGE_ROWS, _twelve_rows()):
        expect = tmp_path / "expect.csv"
        with open(expect, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma_id", "t", "g"])
            for g_id in range(samples.shape[0]):
                for i, t in enumerate(np.linspace(0.0, 0.7, samples.shape[1])):
                    writer.writerow([g_id, f"{t:.17g}", f"{samples[g_id, i]:.17g}"])
        got = tmp_path / "got.csv"
        waveop.write_trace_csv(got, samples, 0.7)
        assert got.read_bytes() == expect.read_bytes()
