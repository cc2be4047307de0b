import functools
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from wavecontrol import cli, control_lab, geometry, presets, regularizer, spectral, waveop
from wavecontrol.control_lab import (
    DEFAULT_ALPHA_SCHEDULE,
    SynthesisProblem,
    _axis_diff_weights,
    _boundary_lift,
    _lift_rows,
    _lifted_target,
    h1_inner,
    h1_star_experiment,
    lifted_final_state,
    observability_test,
    residual_curve,
    synthesize_control,
    unreachability_bound,
)
from wavecontrol.regularizer import CONTROL_CLASSES, class_operators
from wavecontrol.spectral import fd_operator, project
from wavecontrol.waveop import (
    DEFAULT_TIME_STEPS,
    Factors,
    _sin_factors,
    control_to_state,
    f_inner,
    time_weights,
)

T_DESK = 0.75


# ---------------------------------------------------------------------------
# problem validation


def test_problem_defaults():
    y = np.zeros(17)
    prob = SynthesisProblem(target=y, T=0.5)
    assert prob.delta == pytest.approx(0.05)
    assert prob.epsilon == pytest.approx(0.025)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"T": 0.0}, "horizon"),
        ({"T": -1.0}, "horizon"),
        ({"T": 0.5, "s": -0.5}, "nonnegative"),
        ({"T": 0.5, "alpha": -1e-3}, "Tikhonov"),
        ({"T": 0.5, "control_class": "bounded_variation"}, "control class"),
        ({"T": 0.5, "control_class": "smooth", "delta": 0.1, "epsilon": 0.1}, "eps"),
        ({"T": 0.5, "control_class": "smooth", "delta": 0.6}, "eps"),
    ],
)
def test_problem_rejects_bad_knobs(kwargs, message):
    y = np.zeros(17)
    with pytest.raises(ValueError, match=message):
        SynthesisProblem(target=y, **kwargs)


def test_unrestricted_class_ignores_band_ordering():
    # delta/epsilon only constrain the mollified classes
    y = np.zeros(17)
    SynthesisProblem(target=y, T=0.5, delta=0.3, epsilon=0.3)


# ---------------------------------------------------------------------------
# control-class operators


@pytest.mark.parametrize("control_class", ["smooth", "smooth_vanishing_at_T"])
def test_class_operator_adjoint_pair(small_basis, rng, control_class):
    """<C g, z> = <g, C* z> in the boundary-cylinder inner product."""
    n_t = 129
    dt = T_DESK / (n_t - 1)
    apply_c, apply_ct = class_operators(control_class, T_DESK, T_DESK / 10, T_DESK / 20, n_t)
    w = small_basis.boundary_weights
    for _ in range(5):
        g = rng.standard_normal((len(w), n_t))
        z = rng.standard_normal((len(w), n_t))
        lhs = f_inner(apply_c(g), z, w, dt)
        rhs = f_inner(g, apply_ct(z), w, dt)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-12


@pytest.mark.parametrize("control_class", ["smooth", "smooth_vanishing_at_T"])
def test_class_operator_folds_into_time_factors(small_basis, rng, control_class):
    """Factors (U, C* S) pair g as (U, S) pair C g; the terminal-spike rows
    read (C g)[:, -1], and so does g against the one folded time row
    wt * C*(delta_T / wt[-1])."""
    n_t = 129
    wt = time_weights(n_t, T_DESK / (n_t - 1))
    bw = small_basis.boundary_weights
    apply_c, apply_ct = class_operators(control_class, T_DESK, T_DESK / 10, T_DESK / 20, n_t)
    U = small_basis.conormal_traces
    S = _sin_factors(small_basis.lambdas, np.linspace(0.0, T_DESK, n_t), T_DESK)
    g = rng.standard_normal((len(bw), n_t))
    folded = Factors(U, apply_ct(S), bw, wt).pair(g)
    direct = Factors(U, S, bw, wt).pair(apply_c(g))
    assert np.abs(folded - direct).max() <= 1e-12 * np.abs(direct).max()
    spikes = np.zeros((len(bw), n_t))
    spikes[:, -1] = 1.0 / wt[-1]
    terminal = Factors(np.diag(1.0 / bw), apply_ct(spikes), bw, wt).pair(g)
    smoothed = apply_c(g)
    assert np.abs(terminal - smoothed[:, -1]).max() <= 1e-12 * np.abs(smoothed).max()
    folded_row = g @ (wt * apply_ct(spikes[:1])[0])
    assert np.abs(folded_row - smoothed[:, -1]).max() <= 1e-12 * np.abs(smoothed).max()


def test_class_operator_applied_once_per_solve(desk_basis, monkeypatch):
    """The class operator acts on the factors and the output, never per iteration.

    The folded cylinder is kept in the basis's memo, so a second synthesis
    of the same class on that basis applies C to its output only, and the
    H1 experiment, which runs the "smooth" class, reads that class's entry:
    C* acts on its one terminal-spike row alone.
    """
    calls, built = [], []
    real = control_lab.class_operators

    def counting(*args):
        built.append(args[0])
        apply_c, apply_ct = real(*args)

        def c(g):
            calls.append("apply_c")
            return apply_c(g)

        def ct(z):
            calls.append(("apply_ct", len(z)))
            return apply_ct(z)

        return c, ct

    monkeypatch.setattr(control_lab, "class_operators", counting)
    y = presets.smooth_interior_target(desk_basis.domain)
    ramp = presets.ramp_target(desk_basis.domain)
    K = desk_basis.n_modes
    for budget in (5, 50):
        basis = replace(desk_basis)  # a fresh memo
        built.clear()
        for control_class in ("smooth_vanishing_at_T", "smooth"):
            prob = SynthesisProblem(
                target=y, T=T_DESK, control_class=control_class, budget=budget, tol=0.0
            )
            calls.clear()
            assert synthesize_control(prob, basis).iterations == budget
            assert calls == [("apply_ct", K), "apply_c"]
            calls.clear()
            assert synthesize_control(prob, basis).iterations == budget
            assert calls == ["apply_c"]
        calls.clear()
        assert h1_star_experiment(ramp, T_DESK, basis, budget=budget).iterations == budget
        assert calls == [("apply_ct", 1), "apply_c"]
        assert built == ["smooth_vanishing_at_T", "smooth"]


def test_time_weights_built_once_per_cylinder(desk_basis, monkeypatch):
    """Every synthesis on one basis, horizon and step count, of every class
    and the H1 experiment alike, reads the time weights of one boundary
    cylinder, built once."""
    built = []
    real = waveop.time_weights

    def counting(n_t, dt):
        built.append(n_t)
        return real(n_t, dt)

    # control_lab is patched too in case it binds the name itself
    for module in (waveop, control_lab):
        if hasattr(module, "time_weights"):
            monkeypatch.setattr(module, "time_weights", counting)
    basis = replace(desk_basis)  # a fresh memo
    y = presets.smooth_interior_target(basis.domain)
    for control_class in CONTROL_CLASSES:
        prob = SynthesisProblem(target=y, T=T_DESK, control_class=control_class, budget=5)
        synthesize_control(prob, basis)
    h1_star_experiment(presets.ramp_target(basis.domain), T_DESK, basis, budget=5)
    assert built == [DEFAULT_TIME_STEPS + 1]


def test_identity_class_operators():
    apply_c, apply_ct = class_operators("all_of_F", 0.5, 0.05, 0.025, 33)
    g = np.arange(66, dtype=float).reshape(2, 33)
    assert apply_c(g) is g
    assert apply_ct(g) is g


# ---------------------------------------------------------------------------
# synthesis on reachable targets


def test_in_range_target_recovered(desk_basis):
    y = presets.in_range_target(desk_basis, T_DESK)
    prob = SynthesisProblem(target=y, T=T_DESK, alpha=0.0, tol=1e-10)
    res = synthesize_control(prob, desk_basis)
    assert res.converged
    assert res.relative_residual < 1e-6
    assert res.iterations <= prob.budget


@pytest.mark.parametrize("control_class", ["smooth", "smooth_vanishing_at_T"])
def test_mollified_classes_reach_smooth_targets(desk_basis, control_class):
    y = presets.smooth_interior_target(desk_basis.domain)
    prob = SynthesisProblem(
        target=y, T=T_DESK, control_class=control_class, alpha=0.0, tol=1e-10
    )
    res = synthesize_control(prob, desk_basis)
    assert res.relative_residual < 1e-6
    times = np.linspace(0, T_DESK, res.control.samples.shape[1])
    band = prob.delta - prob.epsilon
    # structural zeros of the class, not a convergence property
    quiet = res.control.samples[:, times <= band - 1e-12]
    assert quiet.size > 0 and np.all(quiet == 0.0)
    if control_class == "smooth_vanishing_at_T":
        assert np.all(res.control.samples[:, -1] == 0.0)


def test_d1_weighted_synthesis_matches_frozen(desk_basis, baselines):
    y = presets.smooth_interior_target(desk_basis.domain)
    prob = SynthesisProblem(
        target=y, T=T_DESK, s=1.0, control_class="smooth_vanishing_at_T", alpha=0.0
    )
    res = synthesize_control(prob, desk_basis)
    assert res.relative_residual <= 0.05
    ref = baselines["d1_smooth_vanishing_relative_residual"]
    # conjugate-gradient stopping points wander a little across BLAS builds
    assert res.relative_residual <= 100 * ref


def test_history_monotone_and_budget_respected(desk_basis):
    y = presets.center_bump_target(desk_basis.domain)
    prob = SynthesisProblem(target=y, T=0.3, alpha=0.0, budget=5, tol=1e-14)
    res = synthesize_control(prob, desk_basis)
    assert not res.converged
    assert res.iterations == 5
    assert len(res.residual_history) == res.iterations + 1
    hist = res.residual_history
    assert np.all(hist[1:] <= hist[:-1] + 1e-12 * hist[0])


def test_longer_horizon_does_not_hurt(desk_basis):
    y = presets.center_bump_target(desk_basis.domain)
    short = synthesize_control(
        SynthesisProblem(target=y, T=0.3, alpha=1e-4, budget=200), desk_basis
    )
    long = synthesize_control(
        SynthesisProblem(target=y, T=T_DESK, alpha=1e-4, budget=200), desk_basis
    )
    assert long.relative_residual <= short.relative_residual + 1e-9


# ---------------------------------------------------------------------------
# residual curves

# the three control calls of the desk benchmark and one 17^2 square config:
# target preset, horizon, norm weight s and control class
SWEEPS = {
    "desk_unreachable": ("center_bump", 0.3, 0.0, "all_of_F"),
    "desk_in_range": ("in_range", T_DESK, 0.0, "all_of_F"),
    "desk_smooth_class": ("smooth_interior", T_DESK, 1.0, "smooth_vanishing_at_T"),
    "square_17_smooth": ("smooth_interior", T_DESK, 1.0, "smooth"),
}


@pytest.fixture(scope="module")
def square_17_basis():
    return spectral.eigensolve(geometry.rectangle(shape=(17, 17)), 20)


def _sweep(case, desk_basis, square_17_basis, budget=500):
    """A fresh-memo basis and the problem of one SWEEPS case."""
    target, T, s, control_class = SWEEPS[case]
    basis = replace(square_17_basis if case.startswith("square") else desk_basis)
    y = presets.TARGET_PRESETS[target](basis, T, DEFAULT_TIME_STEPS)
    return basis, SynthesisProblem(
        target=y, T=T, s=s, control_class=control_class, budget=budget
    )


def _assert_shift_matches(got, want):
    """A converged shift of a sweep against its own standalone solve.

    Measured on SWEEPS: controls within 8.7e-10 of their largest sample
    (desk_unreachable at alpha = 1e-3), iteration counts within one (23 ->
    24 and 78 -> 77), final misfits within 4.5e-12 of the target norm."""
    assert got.converged and want.converged
    assert abs(got.iterations - want.iterations) <= 1
    scale = np.abs(want.control.samples).max()
    assert np.abs(got.control.samples - want.control.samples).max() <= 1e-8 * scale
    assert got.final_residual == pytest.approx(want.final_residual, abs=1e-10 * want.target_norm)


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_matches_standalone_solves(case, desk_basis, square_17_basis):
    """The seed, the smallest alpha, is the standalone solve bit for bit;
    every shift agrees with its own standalone solve."""
    basis, prob = _sweep(case, desk_basis, square_17_basis)
    results = residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)
    alone = [synthesize_control(replace(prob, alpha=a), basis) for a in DEFAULT_ALPHA_SCHEDULE]
    seed, want = results[-1], alone[-1]
    assert (seed.iterations, seed.converged) == (want.iterations, want.converged)
    assert np.array_equal(seed.control.samples, want.control.samples)
    assert np.array_equal(seed.residual_history, want.residual_history)
    assert seed.final_residual == want.final_residual
    for got, want in zip(results[:-1], alone[:-1]):
        _assert_shift_matches(got, want)


@pytest.mark.parametrize("case", SWEEPS)
def test_budget_sweep_matches_standalone_budget_solves(case, desk_basis, square_17_basis):
    """With a budget of 5, every alpha stops unconverged at 5 iterations on
    its standalone budget-5 iterate: the shifts' iterates are their own
    CGLS iterates, to rounding."""
    basis, prob = _sweep(case, desk_basis, square_17_basis, budget=5)
    results = residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)
    for a, got in zip(DEFAULT_ALPHA_SCHEDULE, results):
        want = synthesize_control(replace(prob, alpha=a), basis)
        assert got.iterations == want.iterations == 5
        assert not got.converged and not want.converged
        # measured: controls within 1.1e-13 of their largest sample,
        # histories within 3.6e-16 of their start
        scale = np.abs(want.control.samples).max()
        assert np.abs(got.control.samples - want.control.samples).max() <= 1e-11 * scale
        gap = np.abs(got.residual_history - want.residual_history).max()
        assert gap <= 1e-14 * want.residual_history[0]


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_shift_histories_nonincreasing(case, desk_basis, square_17_basis):
    """Each shift's history is its own objective per iteration, and it does
    not rise.  A rise of one unit in the last place of the start (1.8e-16 of
    it, desk_unreachable at alpha = 1e-4 and 1e-5) is the rounding floor of
    the stalled objective: standalone solves show it too (alpha = 1e-3)."""
    basis, prob = _sweep(case, desk_basis, square_17_basis)
    for res in residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)[:-1]:
        h = res.residual_history
        assert len(h) == res.iterations + 1
        assert np.diff(h).max() <= 1e-15 * h[0]


@pytest.mark.parametrize("s, builds", [(1.0, [1, 1]), (0.0, [1, 0])])
def test_sweep_builds_one_weighted_cylinder(s, builds, desk_basis, monkeypatch):
    """A five-alpha sweep weights its time factors once.  With s != 0 it
    builds one s-weighted cylinder per sweep; with s = 0 it pairs on the
    memoised folded cylinder itself (lambda^0 = 1 exactly), whose weighted
    factors the first sweep builds and the second reuses."""
    real = Factors._weighted.func
    built = []

    def counting(fac):
        built.append(fac)
        return real(fac)

    weighted = functools.cached_property(counting)
    weighted.__set_name__(Factors, "_weighted")
    monkeypatch.setattr(Factors, "_weighted", weighted)
    basis = replace(desk_basis)  # a fresh memo
    prob = SynthesisProblem(target=presets.in_range_target(basis, T_DESK), T=T_DESK, s=s)
    counts = []
    for _ in range(2):
        built.clear()
        residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)
        counts.append(len(built))
        if s == 0 and built:
            key = (T_DESK, DEFAULT_TIME_STEPS, "all_of_F", prob.delta, prob.epsilon)
            assert built == [basis.sines[key][2]]
    assert counts == builds



def test_residual_curve_decreases_with_alpha(desk_basis):
    y = presets.in_range_target(desk_basis, T_DESK)
    prob = SynthesisProblem(target=y, T=T_DESK)
    results = residual_curve(prob, alphas=(1e-2, 1e-3, 1e-4), basis=desk_basis)
    assert len(results) == 3
    finals = [r.final_residual for r in results]
    assert finals[0] > finals[1] > finals[2]
    assert all(r.converged for r in results)


def test_residual_curve_rejects_bad_schedules(desk_basis):
    y = presets.in_range_target(desk_basis, T_DESK)
    prob = SynthesisProblem(target=y, T=T_DESK)
    with pytest.raises(ValueError, match="positive"):
        residual_curve(prob, alphas=(1e-2, 0.0), basis=desk_basis)
    with pytest.raises(ValueError, match="decreasing"):
        residual_curve(prob, alphas=(1e-3, 1e-2), basis=desk_basis)
    with pytest.raises(ValueError, match="decreasing"):
        residual_curve(prob, alphas=(1e-3, 1e-3), basis=desk_basis)


def test_residual_curve_builds_class_operator_once(desk_basis, monkeypatch):
    """A five-alpha sweep builds the mollifier's Toeplitz blocks once; its
    seed, the smallest alpha, matches a solve on a fresh basis bit for bit
    and every shift its own solve within the oracle bounds below; the
    blocks are held by the basis's memo and freed with the basis."""
    y = presets.smooth_interior_target(desk_basis.domain)
    prob = SynthesisProblem(target=y, T=T_DESK, s=1.0, control_class="smooth_vanishing_at_T")
    real_blocks = regularizer._toeplitz_blocks
    expect = [
        synthesize_control(replace(prob, alpha=a), replace(desk_basis))
        for a in DEFAULT_ALPHA_SCHEDULE
    ]
    built = []

    def counting_blocks(*args, **kwargs):
        blocks = real_blocks(*args, **kwargs)
        built.append(weakref.ref(blocks))
        return blocks

    monkeypatch.setattr(regularizer, "_toeplitz_blocks", counting_blocks)
    basis = replace(desk_basis)  # a fresh memo
    results = residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)
    assert len(built) == 1
    seed, want = results[-1], expect[-1]
    assert seed.iterations == want.iterations
    assert np.array_equal(seed.control.samples, want.control.samples)
    assert np.array_equal(seed.residual_history, want.residual_history)
    for got, want in zip(results[:-1], expect[:-1]):
        _assert_shift_matches(got, want)
    assert built[0]() is not None
    del basis
    gc.collect()
    assert built[0]() is None


def test_cylinder_freed_with_its_basis_by_reference_counting(desk_basis, monkeypatch):
    """An alpha sweep and the H1 experiment on one basis build the "smooth"
    class operator once, and with the cyclic collector off, the mollifier
    blocks and the folded cylinder die with the basis: the memo holds no
    reference back to the basis.  The sine table is the process's last one
    and dies when the next table replaces it."""
    real_blocks = regularizer._toeplitz_blocks
    built = []

    def counting_blocks(*args, **kwargs):
        blocks = real_blocks(*args, **kwargs)
        built.append(weakref.ref(blocks))
        return blocks

    monkeypatch.setattr(regularizer, "_toeplitz_blocks", counting_blocks)
    y = presets.smooth_interior_target(desk_basis.domain)
    ramp = presets.ramp_target(desk_basis.domain)
    prob = SynthesisProblem(target=y, T=T_DESK, control_class="smooth", budget=20)
    gc.collect()
    gc.disable()
    try:
        basis = replace(desk_basis)  # a fresh memo
        residual_curve(prob, DEFAULT_ALPHA_SCHEDULE, basis)
        h1_star_experiment(ramp, T_DESK, basis, budget=20)
        sines = weakref.ref(waveop.modal_factors(basis, T_DESK, DEFAULT_TIME_STEPS).V)
        key = (T_DESK, DEFAULT_TIME_STEPS, "smooth", prob.delta, prob.epsilon)
        fold = weakref.ref(basis.sines[key][2])
        assert len(built) == 1
        assert built[0]() is not None and fold() is not None and sines() is not None
        del basis
        assert built[0]() is None and fold() is None
        assert sines() is not None
        waveop.modal_factors(replace(desk_basis), 0.5 * T_DESK, DEFAULT_TIME_STEPS)
        assert sines() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# unreachable targets and the support certificate


def test_separated_bump_stalls_near_target_norm(desk_basis, interval_distance):
    """A bump the waves cannot reach in time keeps essentially all its norm."""
    y = presets.center_bump_target(desk_basis.domain)
    T = 0.3
    for alpha in DEFAULT_ALPHA_SCHEDULE:
        res = synthesize_control(
            SynthesisProblem(target=y, T=T, alpha=alpha, budget=200), desk_basis
        )
        assert res.final_residual >= 0.99 * res.target_norm

    region = geometry.filled_subdomain(desk_basis.domain, interval_distance, T)
    bound = unreachability_bound(y, region)
    dilated = unreachability_bound(y, region, band=2 * max(desk_basis.domain.spacings))
    # support separated from the boundary by more than T: full mass outside
    assert bound == pytest.approx(desk_basis.h_norm(y), rel=1e-12)
    assert dilated <= bound
    res = synthesize_control(
        SynthesisProblem(target=y, T=T, alpha=1e-6, budget=200), desk_basis
    )
    assert res.final_residual >= (1 - 1e-2) * dilated


def test_reachable_region_gives_zero_bound(desk_basis, interval_distance):
    y = presets.center_bump_target(desk_basis.domain)
    region = geometry.filled_subdomain(desk_basis.domain, interval_distance, T_DESK)  # everything
    assert unreachability_bound(y, region) == 0.0
    assert unreachability_bound(y, region, band=2 * max(desk_basis.domain.spacings)) == 0.0


def test_frontier_straddling_bump_regression(desk_basis, interval_distance, baselines):
    # the converged misfit for a target half inside the filled region sits
    # below the dilated support bound: the discrete wavefront leaks a thin
    # precursor layer; both numbers are pinned as regression values
    y = presets.center_bump_target(desk_basis.domain, center=0.3, halfwidth=0.1)
    region = geometry.filled_subdomain(desk_basis.domain, interval_distance, 0.3)
    bound = unreachability_bound(y, region, band=2 * max(desk_basis.domain.spacings))
    assert bound == pytest.approx(
        baselines["half_out_bump_support_bound"], rel=1e-12
    )
    res = synthesize_control(
        SynthesisProblem(target=y, T=0.3, alpha=1e-6), desk_basis
    )
    assert res.final_residual == pytest.approx(
        baselines["half_out_bump_plateau"], rel=0.05
    )


# ---------------------------------------------------------------------------
# observability test


def test_first_mode_is_observable(desk_basis, interval_distance):
    y = presets.mode_target(desk_basis, 0)
    verdict = observability_test(
        y, T=0.3, delta=0.03, tol=0.1, basis=desk_basis, tau=interval_distance
    )
    assert verdict.observable
    assert verdict.passed
    assert verdict.trace_ratio > 0.1
    assert verdict.support_ok is None


def test_silent_bump_sits_outside_filled_region(desk_basis, interval_distance):
    y = presets.center_bump_target(desk_basis.domain)
    verdict = observability_test(
        y,
        T=0.3,
        delta=0.03,
        tol=1e-3,
        basis=desk_basis,
        tau=interval_distance,
        band=2 * max(desk_basis.domain.spacings),
    )
    assert not verdict.observable
    assert verdict.trace_ratio <= 1e-3
    assert verdict.inside_ratio <= 0.05
    assert verdict.support_ok is True
    assert verdict.passed


def test_silent_target_with_interior_mass_fails(desk_basis):
    # claiming the whole domain fills instantly must trip the verdict
    y = presets.center_bump_target(desk_basis.domain)
    fake = np.zeros(desk_basis.domain.shape)
    verdict = observability_test(y, T=0.3, delta=0.03, tol=1e-3, basis=desk_basis, tau=fake)
    assert not verdict.observable
    assert verdict.inside_ratio > 0.95
    assert verdict.support_ok is False
    assert not verdict.passed


def test_zero_target_passes_vacuously(desk_basis, interval_distance):
    y = np.zeros(desk_basis.domain.shape[0])
    verdict = observability_test(
        y, T=0.3, delta=0.03, tol=1e-3, basis=desk_basis, tau=interval_distance
    )
    assert verdict.trace_ratio == 0.0
    assert verdict.passed


def test_observability_rejects_bad_window(desk_basis, interval_distance):
    y = presets.mode_target(desk_basis, 0)
    for delta in (0.0, 0.3, 0.4):
        with pytest.raises(ValueError, match="delta"):
            observability_test(
                y, T=0.3, delta=delta, tol=0.1, basis=desk_basis,
                tau=interval_distance,
            )


# ---------------------------------------------------------------------------
# grid H1 machinery


def test_h1_inner_linear_function(desk_basis):
    x = desk_basis.domain.axes[0]
    u = x.copy()
    # mass term integrates x^2 (trapezoid), gradient term is exact for a ramp
    val = h1_inner(u, u, desk_basis)
    assert val == pytest.approx(1.0 / 3.0 + 1.0, rel=1e-5)


def test_h1_inner_symmetric(desk_basis, rng):
    n = desk_basis.domain.shape[0]
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    assert h1_inner(u, v, desk_basis) == pytest.approx(
        h1_inner(v, u, desk_basis), rel=1e-12
    )


def test_h1_dominates_mass_norm(desk_basis, rng):
    u = rng.standard_normal(desk_basis.domain.shape[0])
    assert np.sqrt(h1_inner(u, u, desk_basis)) >= desk_basis.h_norm(u)


@pytest.mark.parametrize("shape, axis", [((17,), 0), ((7, 5), 0), ((7, 5), 1)])
def test_axis_diff_weights_match_reference(shape, axis):
    """Midpoint weight along the differenced axis, trapezoid across it, bit for bit."""
    if len(shape) == 1:
        dom = geometry.interval(n=shape[0], x1=1.3)
        expect = np.full(shape[0] - 1, dom.spacings[0])
    else:
        dom = geometry.rectangle(shape=shape, extents=((0.0, 1.0), (0.0, 0.7)))
        h, k = dom.spacings[axis], dom.spacings[1 - axis]
        w = np.full(shape[1 - axis], k)
        w[0] = w[-1] = k / 2
        expect = np.array([[h * wj for wj in w]] * (shape[axis] - 1))
        expect = expect if axis == 0 else expect.T
    assert np.array_equal(_axis_diff_weights(dom, axis), expect)


def _h1_inner_reference(u, v, basis):
    """h1_inner's arithmetic in its order, every difference taken per call."""
    dom = basis.domain
    dim = dom.dimension
    total = np.tensordot(u, basis.mass_weights * v, axes=dim)
    for axis, h in enumerate(dom.spacings):
        dv = _axis_diff_weights(dom, axis) * np.diff(v, axis=axis) / h**2
        total = total + np.tensordot(np.diff(u, axis=axis - dim), dv, axes=dim)
    return total


H1_GEOMETRIES = ["desk", "square_17", "rectangle_17x13"]


def _h1_basis(which, desk_basis):
    """A fresh-memo basis on the desk, on 17^2 or on 17 x 13 with unequal spacings."""
    if which == "desk":
        return replace(desk_basis)
    if which == "square_17":
        return spectral.eigensolve(geometry.rectangle(shape=(17, 17)), 20)
    dom = geometry.rectangle(shape=(17, 13), extents=((0.0, 1.3), (0.0, 0.7)))
    return spectral.eigensolve(dom, 20)


def _lifted_columns(basis):
    """R e_j for every lifted coordinate j: the K modes, then each column of
    _boundary_lift less its modal shadow, taken by project."""
    lift = _boundary_lift(basis.domain).T.reshape((-1,) + basis.modes.shape[1:])
    shadow = np.stack([project(col, basis) for col in lift])
    return np.concatenate([basis.modes, lift - np.tensordot(shadow, basis.modes, axes=1)])


@pytest.mark.parametrize("which", H1_GEOMETRIES)
def test_h1_star_pairing_matches_h1_inner(which, desk_basis, rng):
    """h1_inner, the one pairing that builds Q1 and splits targets, matches
    the difference-form reference on the lifted columns and on one grid
    function.

    The desk and the square have dyadic spacings, on which dividing by h^2
    is exact; the rectangle's are not.
    """
    basis = _h1_basis(which, desk_basis)
    rows = _lifted_columns(basis)
    z = rng.standard_normal(basis.domain.shape)
    expect = _h1_inner_reference(rows, z, basis)
    # measured 1.0e-14 (desk), 1.5e-15 (17^2) and 9.1e-16 (17 x 13)
    assert np.abs(h1_inner(rows, z, basis) - expect).max() <= 1e-13 * np.abs(expect).max()
    u = rng.standard_normal(basis.domain.shape)
    expect = float(_h1_inner_reference(u, z, basis))
    assert h1_inner(u, z, basis) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("which", H1_GEOMETRIES)
def test_lift_rows_are_lift_columns_less_their_modal_shadow(which, desk_basis, rng):
    """Row b is one on boundary node b and zero on the others, has no modal
    part, and lifted_final_state is the lift of f(., T) plus the modal
    correction, as the lift columns and their modal shadow give it."""
    basis = _h1_basis(which, desk_basis)
    rows = _lift_rows(basis)
    n_bnd = len(basis.boundary_weights)
    assert rows.shape == (n_bnd,) + tuple(basis.domain.shape) and not rows.flags.writeable
    assert _lift_rows(basis) is rows
    # measured on the desk, the largest of the three: 5.4e-15, 5.3e-16, 3.7e-16
    on_boundary = rows[:, basis.domain.boundary_mask]
    assert np.abs(on_boundary - np.eye(n_bnd)).max() <= 1e-12
    modal = np.stack([project(row, basis) for row in rows])
    assert np.abs(modal).max() <= 1e-12 * np.abs(rows).max()
    lift_cols = _boundary_lift(basis.domain)
    flat = basis.modes.reshape(basis.n_modes, -1)
    lift_modal = flat @ (basis.mass_weights.ravel()[:, None] * lift_cols)
    f = waveop.random_control(basis, T_DESK, rng, n_steps=64)
    c, b = waveop.control_to_modal(f, basis), f.samples[:, -1]
    expect = (lift_cols @ b + (c - lift_modal @ b) @ flat).reshape(basis.domain.shape)
    got = lifted_final_state(f, basis)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("which", H1_GEOMETRIES)
def test_h1_gram_is_h1_inner_of_the_lifted_columns(which, desk_basis, rng):
    """Q1 (memoised per basis) is h1_inner of every pair of lifted columns."""
    basis = _h1_basis(which, desk_basis)
    cols = _lifted_columns(basis)
    expect = np.array([[h1_inner(a, b, basis) for b in cols] for a in cols])
    gram, _ = _lifted_target(rng.standard_normal(basis.domain.shape), basis)
    # measured 1.9e-16 on all three
    assert np.abs(gram - expect).max() <= 1e-12 * np.abs(expect).max()
    assert np.array_equal(gram, gram.T) and not gram.flags.writeable
    assert _lifted_target(rng.standard_normal(basis.domain.shape), basis)[0] is gram


@pytest.mark.parametrize("which", H1_GEOMETRIES)
def test_lifted_target_split_is_h1_orthogonal(which, desk_basis, rng):
    """y = R y_J + y_perp with y_perp H1-orthogonal to every lifted column,
    and |y_J|_Q1^2 + |y_perp|^2 reproduces h1_inner(y, y)."""
    basis = _h1_basis(which, desk_basis)
    y = rng.standard_normal(basis.domain.shape)
    gram, rhs = _lifted_target(y, basis)
    J = len(gram)
    cols = _lifted_columns(basis)
    y_perp = y - np.tensordot(rhs[:J], cols, axes=1)
    yy = h1_inner(y, y, basis)
    scale = np.sqrt(yy * np.diag(gram).max())
    # measured at most 9.3e-17 and 1.3e-16
    assert np.abs(h1_inner(cols, y_perp, basis)).max() <= 1e-12 * scale
    assert rhs[J] == pytest.approx(np.sqrt(h1_inner(y_perp, y_perp, basis)), rel=1e-12)
    assert rhs[:J] @ gram @ rhs[:J] + rhs[J] ** 2 == pytest.approx(yy, rel=1e-12)


def _grid_side_h1_star(target, T, basis, budget):
    """h1_star_experiment on the grid: every CGLS iteration maps to the
    lifted state, a grid function, and pairs it in H1 with every lifted
    column R e_j.  The final-time values are n_bnd stacked rank-one rows,
    diag(1/bw) x C*(delta_T / wt[-1]), under the folded cylinder's modes."""
    problem = SynthesisProblem(target=target, T=T, control_class="smooth", budget=budget, tol=1e-10)
    n_bnd = len(basis.boundary_weights)
    apply_c, apply_ct, fac = control_lab._class_fold(problem, basis)
    spikes = np.zeros((n_bnd, problem.n_steps + 1))
    spikes[:, -1] = 1.0 / fac.wt[-1]
    U = np.vstack([fac.U, np.diag(1.0 / fac.bw)])
    fac = replace(fac, U=U, V=np.vstack([fac.V, apply_ct(spikes)]))
    R = np.concatenate([basis.modes, _lift_rows(basis)])
    fwd = lambda g: np.tensordot(fac.pair(g), R, axes=1)
    adj = lambda z: fac.expand(h1_inner(R, z, basis))
    inner_data = lambda u, v: h1_inner(u, v, basis)
    return control_lab._solve(problem, (0.0,), fwd, adj, fac.inner, apply_c, target, inner_data)[0]


@pytest.mark.parametrize("which", ["desk_ramp", "square_17_smooth_interior"])
@pytest.mark.parametrize("budget", [5, 20])
def test_lifted_solve_matches_grid_side_solve(which, budget, desk_basis):
    """The lifted-coordinate solve runs the grid-side solve's iterations: the
    residual histories and the controls agree to rounding."""
    if which == "desk_ramp":
        basis = replace(desk_basis)
        y = presets.ramp_target(basis.domain)
    else:
        basis = spectral.eigensolve(geometry.rectangle(shape=(17, 17)), 20)
        y = presets.smooth_interior_target(basis.domain)
    got = h1_star_experiment(y, T_DESK, basis, budget=budget)
    ref = _grid_side_h1_star(y, T_DESK, basis, budget)
    assert got.iterations == ref.iterations == budget
    # measured: histories within 1.7e-13 of their start, controls within
    # 2.4e-11 of their largest sample, misfits within 2e-14 of the target norm
    assert np.abs(got.residual_history - ref.residual_history).max() <= (
        1e-12 * ref.residual_history[0]
    )
    scale = np.abs(ref.control.samples).max()
    assert np.abs(got.control.samples - ref.control.samples).max() <= 1e-9 * scale
    assert got.final_residual == pytest.approx(ref.final_residual, abs=1e-12 * ref.target_norm)
    assert got.target_norm == pytest.approx(ref.target_norm, rel=1e-12)


def test_h1_star_runs_no_lapack_solver_on_the_desk(desk_basis, monkeypatch):
    """The desk h1star calls no numpy.linalg solver: one LAPACK solve of the
    66 x 66 Q1 touches 0.25 MB of new pages (a VmRSS delta after warm
    GEMMs), so targets are split by conjugate gradients in numpy alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg solver called")

    for name in ("solve", "lstsq", "inv", "pinv", "cholesky", "eigh", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    basis = replace(desk_basis)  # a fresh memo: Q1 is built inside
    res = h1_star_experiment(presets.ramp_target(basis.domain), T_DESK, basis, budget=5)
    assert res.iterations == 5 and "h1_gram" in basis.sines


def test_lifted_target_peak_memory_per_row_stack():
    """The Q1 build pairs the row stack R = [modes; lift rows] with blocks
    of its rows: on a 33^2 square the split peaks at 1.5 stack sizes (R
    itself is one), and a one-block build read 5.0."""
    basis = cli.build_basis(cli.ExperimentConfig(preset="square", nx=33, ny=33))
    y = presets.smooth_interior_target(basis.domain)
    _lift_rows(basis)  # the sparse-LU lift is built before the count starts
    stack_bytes = (basis.n_modes + len(basis.boundary_weights)) * basis.mass_weights.nbytes
    tracemalloc.start()
    try:
        _lifted_target(y, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack_bytes


def test_h1_star_warm_call_peak_memory_per_row_stack():
    """A warm h1star call on a 33^2 square, with the lift, Q1, the split
    and the class fold built, peaks below 4 row-stack sizes: the final-time
    values are one folded time row.  n_bnd stacked spike rows, rebuilt per
    call, read 5.0."""
    basis = cli.build_basis(cli.ExperimentConfig(preset="square", nx=33, ny=33))
    y = presets.smooth_interior_target(basis.domain)
    h1_star_experiment(y, T_DESK, basis, budget=1)
    stack_bytes = (basis.n_modes + len(basis.boundary_weights)) * basis.mass_weights.nbytes
    tracemalloc.start()
    try:
        h1_star_experiment(y, T_DESK, basis, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack_bytes


def test_boundary_lift_built_once_per_basis(monkeypatch):
    """Rescoring twice and an h1star solve share one sparse-LU lift per basis."""
    basis = spectral.eigensolve(geometry.rectangle(shape=(17, 17)), 20)
    built = []
    real = control_lab._boundary_lift

    def counting(domain):
        built.append(domain.shape)
        return real(domain)

    monkeypatch.setattr(control_lab, "_boundary_lift", counting)
    f = waveop.random_control(basis, T_DESK, np.random.default_rng(3), n_steps=64)
    first = lifted_final_state(f, basis)
    assert np.array_equal(lifted_final_state(f, basis), first)
    y = presets.smooth_interior_target(basis.domain)
    assert h1_star_experiment(y, T_DESK, basis, budget=5, n_steps=64).iterations == 5
    assert built == [(17, 17)]


def test_lifted_final_state_rescores_h1_star_result(desk_basis):
    """The experiment's reachable state is the lifted snapshot of its control."""
    y = presets.ramp_target(desk_basis.domain)
    res = h1_star_experiment(y, T_DESK, desk_basis, budget=15)
    state = lifted_final_state(res.control, desk_basis)
    misfit = state - y
    rescored = np.sqrt(h1_inner(misfit, misfit, desk_basis))
    assert rescored == pytest.approx(res.final_residual, rel=1e-9)


def test_lifted_state_matches_plain_snapshot_for_interior_pulse(desk_basis):
    # f(., T) = 0: the boundary lifting contributes nothing
    g = presets.pulse_control(T_DESK, 2, support=(0.1, 0.5))
    lifted = lifted_final_state(g, desk_basis)
    plain = control_to_state(g, desk_basis)
    assert np.max(np.abs(lifted - plain)) < 1e-12


@pytest.mark.parametrize(
    "make_domain",
    [
        lambda: geometry.interval(n=3),
        lambda: geometry.interval(n=4),
        lambda: geometry.interval(n=5),
        lambda: geometry.interval(n=513),
        lambda: geometry.interval(
            n=513, a=geometry.radial_bump_coefficient(1.0, 0.5, (0.5,), 0.25)
        ),
        lambda: geometry.interval(
            n=257, a=lambda x: 1 + 0.3 * np.sin(3 * x), q=2 + np.linspace(0.0, 1.0, 257)
        ),
    ],
    ids=["n3", "n4", "n5", "n513", "interval_bump", "variable_a_and_q"],
)
def test_boundary_lift_1d_matches_dense_solve(make_domain):
    # the 1D lift is an elimination of its own; a dense solve of the interior
    # block of the assembled operator is its oracle, down to three nodes
    dom = make_domain()
    n = dom.shape[0]
    L = fd_operator(dom).toarray()
    inner, outer = np.arange(1, n - 1), np.array([0, n - 1])
    expect = np.linalg.solve(L[np.ix_(inner, inner)], -L[np.ix_(inner, outer)])
    lift = _boundary_lift(dom)
    assert lift.shape == (n, 2)
    assert np.array_equal(lift[outer], np.eye(2))
    assert np.abs(lift[inner] - expect).max() <= 1e-12
    if dom.potential is None and np.ptp(dom.coeff) == 0:
        # constant coefficients without a potential: affine data is harmonic
        x = dom.axes[0]
        u = 0.3 - 1.7 * x
        assert np.abs(lift @ u[outer] - u).max() <= 1e-14


def test_boundary_lift_reproduces_affine_data_2d():
    # constant coefficients, no potential: affine functions are discrete
    # harmonic, so lifting their boundary values must return them everywhere
    dom = geometry.rectangle(shape=(33, 29), extents=((0.0, 1.0), (0.0, 0.8)), a11=1.0, a22=2.5)
    X, Y = dom.grids()
    u = 0.3 + 1.7 * X - 0.9 * Y
    lifted = _boundary_lift(dom) @ u[dom.boundary_mask]
    assert np.abs(lifted - u.ravel()).max() <= 1e-12


# ---------------------------------------------------------------------------
# gradient-norm experiment


def test_h1_star_recovers_boundary_ramp(desk_basis, baselines):
    y = presets.ramp_target(desk_basis.domain)
    res = h1_star_experiment(y, T_DESK, desk_basis)
    assert res.relative_residual <= 0.1
    assert res.relative_residual <= max(
        100 * baselines["h1_ramp_relative_residual"], 1e-10
    )
    # the recovered control must actually carry the boundary value at T
    assert res.control.samples[0, -1] == pytest.approx(1.0, abs=1e-6)
    assert res.control.samples[1, -1] == pytest.approx(0.0, abs=1e-6)


def test_h1_star_not_worse_than_weighted_modal_solution(desk_basis):
    """Direct H1 minimization beats rescoring the s=1 modal minimizer."""
    y = presets.smooth_interior_target(desk_basis.domain)
    modal = synthesize_control(
        SynthesisProblem(
            target=y, T=T_DESK, s=1.0, control_class="smooth_vanishing_at_T", alpha=0.0
        ),
        desk_basis,
    )
    misfit = lifted_final_state(modal.control, desk_basis) - y
    rescored = np.sqrt(h1_inner(misfit, misfit, desk_basis))
    direct = h1_star_experiment(y, T_DESK, desk_basis)
    assert direct.final_residual <= rescored + 1e-6


def test_h1_star_respects_support_bound(desk_basis, interval_distance):
    # constant target, horizon too short to fill: certified floor holds
    y = np.ones(desk_basis.domain.shape[0])
    T = 0.2
    res = h1_star_experiment(y, T, desk_basis, budget=120)
    region = geometry.filled_subdomain(desk_basis.domain, interval_distance, T)
    bound = unreachability_bound(y, region, band=2 * max(desk_basis.domain.spacings))
    assert res.final_residual >= (1 - 1e-2) * bound
