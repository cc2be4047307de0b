import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import hankel, toeplitz

from wavecontrol import presets, regularizer, spectral, waveop


def test_bump_profile_support():
    t = np.array([-1.5, -1.0, -0.999, 0.0, 0.999, 1.0, 1.5])
    v = regularizer.bump_profile(t)
    assert v[0] == v[1] == v[5] == v[6] == 0.0
    assert v[3] > v[2] > 0.0


def test_bump_profile_is_even():
    t = np.linspace(0, 0.99, 50)
    np.testing.assert_allclose(
        regularizer.bump_profile(t), regularizer.bump_profile(-t), rtol=1e-14
    )


def test_normalization_constant(baselines):
    c = regularizer.bump_normalization()
    assert c == pytest.approx(baselines["bump_normalization"], rel=1e-12)
    # unit mass after normalization, checked by an independent quadrature
    t = np.linspace(-1, 1, 20001)
    mass = np.trapezoid(regularizer.bump_profile(t), t)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_second_moment_frozen(baselines):
    assert regularizer.second_moment() == pytest.approx(
        baselines["second_moment"], rel=1e-12
    )


def test_kernel_scaling():
    for eps in (0.1, 0.025):
        kern = regularizer.MollifierKernel(eps)
        t = np.linspace(-2 * eps, 2 * eps, 4001)
        mass = np.trapezoid(kern(t), t)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert kern(np.array([eps, -eps, 2 * eps]))[0] == 0.0


def test_kernel_requires_positive_width():
    with pytest.raises(ValueError, match="positive"):
        regularizer.MollifierKernel(0.0)


def test_beta_at_zero_phase():
    assert regularizer.beta(0.05, 0.0) == 1.0


def test_beta_frozen_value(baselines):
    assert regularizer.beta(1.0, 1.0) == pytest.approx(
        baselines["beta_phase_1"], rel=1e-12
    )
    # beta depends on the phase product only
    assert regularizer.beta(0.5, 4.0) == pytest.approx(
        baselines["beta_phase_1"], rel=1e-12
    )


def test_beta_validation():
    with pytest.raises(ValueError, match="positive"):
        regularizer.beta(0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        regularizer.beta(0.1, -1.0)


def test_beta_small_phase_expansion():
    m2 = regularizer.second_moment()
    for om in (0.01, 0.1, 0.3):
        b = regularizer.beta(om, 1.0)
        assert 0 < 1 - b <= om**2 * m2 / 2 * (1 + 1e-10)


def test_beta_oscillates_at_large_phase():
    phases = np.linspace(5, 40, 200)
    values = np.array([regularizer.beta(p, 1.0) for p in phases])
    assert values.min() < 0 < values.max()
    assert np.abs(values).max() < 0.25


def test_beta_matches_gauss_legendre_at_tail_phases(desk_basis):
    # independent rule for the phases acceptance clause 3-tail reads: the
    # desk's last-quarter modes at eps = 0.05, 0.5, 2.0 (phases 7.7-402)
    x, w = np.polynomial.legendre.leggauss(256)
    weights = w * regularizer.bump_profile(x)
    lambdas = desk_basis.lambdas[3 * desk_basis.n_modes // 4 :]
    for eps in (0.05, 0.5, 2.0):
        phases = eps * np.sqrt(lambdas)
        oracle = np.cos(np.outer(phases, x)) @ weights
        got = regularizer.beta_table(eps, lambdas)
        assert np.abs(got - oracle).max() <= 1e-14


def test_gauss_legendre_literals_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(regularizer._GL_NODES, x)
    assert np.array_equal(regularizer._GL_WEIGHTS, w)


def test_cosine_transform_matches_full_rule():
    # cos on the nonnegative half nodes, mirrored, against cos on every node;
    # below phase 400 the rule has 16 panels, whose nodes mirror exactly
    phases = np.concatenate([np.linspace(0.0, 399.9, 257), [1e-9, 0.3]])
    x, w = regularizer._composite_rule(16)
    assert np.array_equal(x, -x[::-1])
    # the 16-panel nodes are those of the unmirrored composite rule, so beta
    # at phases below 400 is the same as before the mirroring
    edges = np.linspace(-1.0, 1.0, 17)
    half = (edges[1] - edges[0]) / 2
    mids = (edges[:-1] + edges[1:]) / 2
    assert np.array_equal(x, (mids[:, None] + half * regularizer._GL_NODES[None, :]).ravel())
    full = np.cos(np.outer(phases, x)) @ (w * regularizer.bump_profile(x))
    full[0] = 1.0
    assert np.array_equal(regularizer.beta_table(1.0, phases**2), full)
    far = np.array([450.0, 1234.5, 9000.0])
    x, w = regularizer._composite_rule(360)
    full = np.cos(np.outer(far, x)) @ (w * regularizer.bump_profile(x))
    assert np.abs(regularizer.beta_table(1.0, far**2) - full).max() <= 1e-14


QAWO_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _scalar_bump(t):
    return float(regularizer.bump_profile(t))


def test_beta_matches_qawo():
    # independent adaptive oscillatory quadrature (QUADPACK QAWO) of the
    # defining cosine integral, from the first phases to far into the tail
    phases = np.array([0.0, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 1600.0])
    oracle = np.array(
        [quad(_scalar_bump, -1.0, 1.0, weight="cos", wvar=p, **QAWO_OPTS)[0] for p in phases]
    )
    table = regularizer.beta_table(1.0, phases**2)
    scalars = np.array([regularizer.beta(1.0, p**2) for p in phases])
    assert np.abs(table - oracle).max() <= 1e-13
    assert np.abs(scalars - oracle).max() <= 1e-13


def test_beta_is_zero_past_the_underflow_phase():
    # a width of 1e300 used to ask the composite rule for about 4e298 panels
    table = regularizer.beta_table(1e300, np.array([0.0, 1.0, 4e4]))
    assert table.tolist() == [1.0, 0.0, 0.0]
    assert regularizer.beta(1.0, 1e8) == 0.0
    # just below the cutoff the rule already reads roundoff
    assert abs(regularizer.beta_table(1.0, np.array([9999.0**2]))[0]) <= 1e-14


def test_bump_constants_match_adaptive_quadrature():
    mass, _ = quad(lambda t: float(np.exp(-1.0 / (1.0 - t * t))), -1.0, 1.0, **QAWO_OPTS)
    assert regularizer.bump_normalization() == pytest.approx(1.0 / mass, rel=1e-13)
    m2, _ = quad(lambda t: t * t * _scalar_bump(t), -1.0, 1.0, **QAWO_OPTS)
    assert regularizer.second_moment() == pytest.approx(m2, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(min_value=1e-4, max_value=1.0),
    lam=st.floats(min_value=1e-2, max_value=1e6),
)
def test_beta_bounded_property(eps, lam):
    assert abs(regularizer.beta(eps, lam)) <= 1.0


def test_beta_table_matches_scalar(interval_basis):
    lam = interval_basis.lambdas[:5]
    table = regularizer.beta_table(0.05, lam)
    scalars = [regularizer.beta(0.05, v) for v in lam]
    np.testing.assert_allclose(table, scalars, rtol=1e-14)


def test_regularize_state_is_modal_multiplier(interval_basis, rng):
    alphas = rng.standard_normal(interval_basis.n_modes)
    y = spectral.reconstruct(alphas, interval_basis)
    eps = 0.04
    smoothed = regularizer.regularize_state(y, eps, interval_basis)
    got = spectral.project(smoothed, interval_basis)
    expect = alphas * regularizer.beta_table(eps, interval_basis.lambdas)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def _assert_class_operators_match(dense, rows, epsilon, T, n_t, antisymmetric, rng):
    """C and C* of the class against the given rows of its dense mollifier
    matrix (entry (i, j) the kernel at t_i - s_j times the weight w_j)."""
    delta = T / 10
    control_class = "smooth_vanishing_at_T" if antisymmetric else "smooth"
    apply_c, apply_ct = regularizer.class_operators(control_class, T, delta, epsilon, n_t)
    mask = np.linspace(0.0, T, n_t) >= delta - 1e-12 * T
    x = rng.standard_normal((3, n_t))
    for got, expect in (
        (apply_c(x)[:, rows], (x * mask) @ dense.T),
        (apply_ct(x)[:, rows], (x @ dense.T) * mask[rows]),
    ):
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize(
    "epsilon, T, n_t, antisymmetric",
    [
        (0.0375, 0.75, 1025, True),
        (0.01, 2.5, 4097, True),
        (0.3, 0.75, 129, True),
        (0.0123, 0.3, 1025, True),
        (0.05, 0.7, 257, False),
        (0.0005, 0.75, 1025, True),  # eps < dt: the kernel is one tap
    ],
)
def test_mollifier_matrix_matches_direct_formula(epsilon, T, n_t, antisymmetric, rng):
    # every third row keeps the 4097-sample case small; a Toeplitz or Hankel
    # indexing slip shows on any row
    rows = np.r_[0:n_t:3, n_t - 1]
    t = np.linspace(0.0, T, n_t)
    kern = regularizer.MollifierKernel(epsilon)
    expect = kern(t[rows, None] - t[None, :])
    if antisymmetric:
        expect = expect - kern((2 * T - t[rows])[:, None] - t[None, :])
    expect = expect * waveop.time_weights(n_t, T / (n_t - 1))[None, :]
    _assert_class_operators_match(expect, rows, epsilon, T, n_t, antisymmetric, rng)


@pytest.mark.parametrize(
    "epsilon, T, n_t, antisymmetric",
    [
        (0.0375, 0.75, 1025, True),
        (0.01, 2.5, 4097, True),
        (0.3, 0.75, 129, True),
        (0.0123, 0.3, 1025, True),
        (0.05, 0.7, 257, False),
        (0.0375, 0.75, 1025, False),
        (0.0005, 0.75, 1025, False),  # eps < dt: the kernel is one tap
    ],
)
def test_mollifier_matrix_equals_toeplitz_minus_hankel(epsilon, T, n_t, antisymmetric, rng):
    dt = T / (n_t - 1)
    kern = regularizer.MollifierKernel(epsilon)(np.arange(2 * n_t - 1) * dt)
    expect = toeplitz(kern[:n_t])
    if antisymmetric:
        rev = kern[::-1]
        expect -= hankel(rev[:n_t], rev[n_t - 1 :])
    expect *= waveop.time_weights(n_t, dt)[None, :]
    _assert_class_operators_match(expect, np.arange(n_t), epsilon, T, n_t, antisymmetric, rng)


def test_class_operator_peak_memory_is_linear_in_samples():
    """Building the class operator and applying C* to a (66, 8193) stack
    holds a few copies of the stack, never an n_t x n_t matrix (537 MB)."""
    rows, n_t = 66, 8193
    z = np.ones((rows, n_t))
    regularizer.class_operators("smooth_vanishing_at_T", 0.75, 0.075, 0.0375, 33)  # warm caches
    tracemalloc.start()
    try:
        apply_ct = regularizer.class_operators("smooth_vanishing_at_T", 0.75, 0.075, 0.0375, n_t)[1]
        out = apply_ct(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, n_t)
    assert peak < 8 * rows * n_t * 8


def test_smooth_peak_memory_is_bounded_by_passes():
    """C* on verify's 2D smoothing stack, (5120, 1025), holds its output and
    one pass of whole rows (the padded pass, its GEMM output and one GEMM
    temporary: 1.6 stacks), not the padded stack and two GEMM outputs (4.4)."""
    rows, n_t = 5120, 1025
    z = np.ones((rows, n_t))
    apply_ct = regularizer.class_operators("smooth_vanishing_at_T", 0.75, 0.075, 0.0375, n_t)[1]
    apply_ct(z[:2])  # warm caches
    tracemalloc.start()
    try:
        out = apply_ct(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, n_t)
    assert peak < 2 * z.nbytes


@pytest.mark.parametrize("antisymmetric", [False, True])
def test_smooth_passes_match_one_pass(antisymmetric, monkeypatch, rng):
    # a pass takes whole rows, so the split moves an output only by the
    # GEMM's rounding, which depends on the stack's height: each entry is a
    # sum of about 2m = 102 terms, within 1e-14 of the largest output entry
    cls = "smooth_vanishing_at_T" if antisymmetric else "smooth"
    C, Ct = regularizer.class_operators(cls, 0.75, 0.075, 0.0375, 1025)
    x = rng.standard_normal((37, 1025))
    whole = C(x), Ct(x)
    monkeypatch.setattr(regularizer, "_PASS_SAMPLES", 3 * 1173)  # 3 rows per pass
    for got, expect in zip((C(x), Ct(x)), whole):
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_smooth_control_validation(interval_basis, rng):
    T = 0.75
    f = waveop.random_smooth_control(interval_basis, T, rng, support=(0.075, T))
    with pytest.raises(ValueError, match="eps"):
        regularizer.smooth_control(f, 0.08, 0.075)
    with pytest.raises(ValueError, match="delta"):
        regularizer.smooth_control(f, 0.01, 0.8)
    bad = waveop.BoundaryControl(samples=np.ones((2, 1025)), T=T)
    with pytest.raises(ValueError, match="row"):
        regularizer.smooth_control(bad, 0.0375, 0.075)


def test_smooth_control_structure(interval_basis, rng):
    T = 0.75
    delta, eps = 0.075, 0.0375
    f = waveop.random_smooth_control(interval_basis, T, rng, support=(delta, T))
    g = regularizer.smooth_control(f, eps, delta)
    t = g.times
    assert np.abs(g.samples[:, t <= delta - eps]).max() == 0.0
    assert np.abs(g.samples[:, -1]).max() == 0.0


def test_smooth_control_is_the_vanishing_class_operator(interval_basis, rng):
    T, delta, eps = 0.75, 0.075, 0.0375
    f = waveop.random_smooth_control(interval_basis, T, rng, support=(delta, T))
    apply_c = regularizer.class_operators("smooth_vanishing_at_T", T, delta, eps, f.n_t)[0]
    assert np.array_equal(regularizer.smooth_control(f, eps, delta).samples, apply_c(f.samples))


def test_class_operators_refuse_unknown_class():
    with pytest.raises(ValueError, match="control class"):
        regularizer.class_operators("bounded_variation", 0.75, 0.075, 0.0375, 33)


def test_smooth_control_pairing_identity(interval_basis, rng):
    # time-mollifying the control equals spectrally damping the state
    T = 0.75
    delta, eps = T / 10, T / 20
    worst = 0.0
    bvals = regularizer.beta_table(eps, interval_basis.lambdas)
    for _ in range(5):
        f = waveop.random_smooth_control(interval_basis, T, rng, support=(delta, T))
        y = waveop.random_state(interval_basis, rng)
        alphas = spectral.project(y, interval_basis)
        f_eps = regularizer.smooth_control(f, eps, delta)
        lhs = waveop.control_to_modal(f_eps, interval_basis) @ alphas
        rhs = waveop.control_to_modal(f, interval_basis) @ (bvals * alphas)
        gobs = waveop.observe(y, T, interval_basis)
        scale = waveop.f_norm(
            f.samples, interval_basis.boundary_weights, f.dt
        ) * waveop.f_norm(gobs, interval_basis.boundary_weights, f.dt)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-8


def test_beta_csv(tmp_path, interval_basis):
    path = tmp_path / "beta.csv"
    regularizer.write_beta_csv(path, interval_basis, 0.05)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,lambda,beta"
    assert len(lines) == 1 + interval_basis.n_modes
    k, lam, b = lines[1].split(",")
    assert k == "1"
    assert abs(float(b)) <= 1.0
    betas = regularizer.beta_table(0.05, interval_basis.lambdas)
    expect = tmp_path / "expect.csv"
    with open(expect, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda", "beta"])
        for k, (lam, b) in enumerate(zip(interval_basis.lambdas, betas), start=1):
            writer.writerow([k, f"{lam:.17g}", f"{b:.17g}"])
    assert path.read_bytes() == expect.read_bytes()


def test_beta_cache_keeps_its_statistics():
    """_beta_cached stays an lru_cache with cache_info().

    The benchmark's traced run reads its hits and misses for the per-layer
    metric regularizer.beta_cache_hit_ratio (perfbench/child.py).  Without
    cache_info() that metric is dropped and the traced run reports 47 of
    its 48 per-layer metrics, so the cache goes only together with the
    metric, in a change to the benchmark.
    """
    regularizer.beta(0.05, 10.0)
    info = regularizer._beta_cached.cache_info()
    assert info.hits + info.misses >= 1
