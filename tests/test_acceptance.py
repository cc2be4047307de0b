"""End-to-end acceptance checks at the default desk scale.

Each test covers one numbered acceptance criterion (two of them split a
criterion into separately reported clauses) and registers a line with the
``acceptance_log`` fixture before asserting, so the terminal summary always
prints one pass/fail line per clause even when a run goes red.
"""

import json

import numpy as np
import pytest

from wavecontrol import cli, geometry, presets, spectral, waveop
from wavecontrol.control_lab import (
    DEFAULT_ALPHA_SCHEDULE,
    SynthesisProblem,
    h1_inner,
    h1_star_experiment,
    lifted_final_state,
    residual_curve,
    synthesize_control,
)
from wavecontrol.regularizer import (
    beta_table,
    bump_normalization,
    regularize_state,
)

T_DESK = 0.75


def test_criterion_01_adjoint_identity(desk_basis, rng, acceptance_log):
    # five runs of verify's adjointness suite: 100 random pairs in all
    cfg = cli.ExperimentConfig(T=T_DESK)
    items = [
        item
        for _ in range(5)
        for item in cli._suite_adjointness(cfg, None, desk_basis, rng)
    ]
    worst = max(item["measured"] for item in items)
    passed = all(item["passed"] for item in items)
    acceptance_log(
        1, "adjoint identity, 100 random pairs", passed,
        f"max rel discrepancy {worst:.2e} <= 1e-12",
    )
    assert passed


def test_criterion_02_spectral_correctness(interval_basis, square_basis, acceptance_log):
    # verify's spectral suite on the fd interval and square bases
    items = {
        preset: {
            item["item"]: item
            for item in cli._suite_spectral(
                cli.ExperimentConfig(preset=preset), None, basis, None
            )
        }
        for preset, basis in (("interval", interval_basis), ("square", square_basis))
    }
    err_1d = items["interval"]["lambda1_vs_analytic"]["measured"]
    err_2d = items["square"]["lambda1_vs_analytic"]["measured"]
    gram = max(suite["gram_identity_deviation"]["measured"] for suite in items.values())
    passed = all(item["passed"] for suite in items.values() for item in suite.values())
    acceptance_log(
        2, "spectral correctness", passed,
        f"lambda_1 rel err {err_1d:.2e} (1D) / {err_2d:.2e} (2D), "
        f"gram dev {gram:.2e}",
    )
    assert passed


def test_criterion_03_regularizer_identities(desk_basis, acceptance_log):
    eps = 0.05
    betas = beta_table(eps, desk_basis.lambdas)
    diag_dev = 0.0
    for k in (0, 5, 31):
        y = presets.mode_target(desk_basis, k)
        coeffs = spectral.project(regularize_state(y, eps, desk_basis), desk_basis)
        expect = np.zeros(desk_basis.n_modes)
        expect[k] = betas[k]
        diag_dev = max(diag_dev, float(np.abs(coeffs - expect).max()))

    # verify's deterministic eps sweep: |beta| <= 1 and the small-phase expansion
    bounded, taylor = cli._beta_sweep(desk_basis.lambdas)
    taylor_ok = taylor["passed"]

    passed = diag_dev <= 1e-12 and bounded["passed"] and taylor_ok
    acceptance_log(
        3, "regularizer identities", passed,
        f"diagonal dev {diag_dev:.2e}, max |beta| {bounded['measured']:.15g}, "
        f"small-phase expansion {'ok' if taylor_ok else 'violated'}",
    )
    assert passed


# Saddle-point amplitude of the normalized bump's cosine transform (S. G.
# Johnson, "Saddle-point integration of C-infinity bump functions",
# arXiv:1508.04376).  Near t = +-1 the bump is c e^(-1/4) exp(-1/(2u)) with
# u = 1 - |t|; the saddle of exp(-1/(2u) - i w u) sits at u = (2iw)^(-1/2),
# and the two endpoints give
#     beta(w) ~ A w^(-3/4) exp(-sqrt(w)) cos(w - sqrt(w) + const),
#     A = 2 c sqrt(2 pi) 2^(-3/4) e^(-1/4).
# |beta| / envelope tends to 1 from above; it peaks at 1.055 over phases 5-10.
ENVELOPE_CEILING = 1.1
ENVELOPE_FLOOR = 0.5


def _bump_envelope(phase):
    amp = 2 * bump_normalization() * np.sqrt(2 * np.pi) * 2**-0.75 * np.exp(-0.25)
    return amp * phase**-0.75 * np.exp(-np.sqrt(phase))


def _envelope_ratio(values, phases):
    return float(np.max(np.abs(values) / _bump_envelope(phases)))


def _first_mode_within(bound, s, eps, root_lambda_1):
    """First mode from which lambda^(s/2) * envelope stays <= bound.

    The desk interval has sqrt(lambda_k) = k sqrt(lambda_1).
    """
    root = np.arange(1, 100_001) * root_lambda_1
    weighted = root**s * _bump_envelope(eps * root)
    return int(np.nonzero(weighted > bound)[0][-1]) + 2


def test_criterion_03_regularizer_tail_decay(desk_basis, acceptance_log):
    eps = 0.05
    tail = slice(3 * desk_basis.n_modes // 4, desk_basis.n_modes)
    lambdas = desk_basis.lambdas[tail]
    root_lambda_1 = float(np.sqrt(desk_basis.lambdas[0]))
    betas = beta_table(eps, lambdas)
    measured = {s: float(np.max(lambdas ** (s / 2.0) * betas)) for s in (1, 2, 4)}
    modes_for_1e6 = {
        s: _first_mode_within(1e-6, s, eps, root_lambda_1) for s in measured
    }
    desk_ratio = _envelope_ratio(betas, eps * np.sqrt(lambdas))

    # At phases 7.7-10 a finitely smooth kernel still looks like the bump
    # (the hat multiplier is 0.998 of the envelope there), so the same modes
    # are also taken at widths whose phases (77-402) separate the two; beta
    # stays above 1e-10 at the envelope's peaks, well clear of quad's 1e-12.
    far_ratios = {
        e: _envelope_ratio(beta_table(e, lambdas), e * np.sqrt(lambdas))
        for e in (0.5, 2.0)
    }
    # negative control: the C^0 hat kernel, whose multiplier decays like
    # phase^-2; at eps = 2.0 the interval's phases sit on its zeros
    control_phases = 0.5 * np.sqrt(lambdas)
    hat = (np.sin(control_phases / 2) / (control_phases / 2)) ** 2
    control_ratio = _envelope_ratio(hat, control_phases)

    passed = (
        desk_ratio <= ENVELOPE_CEILING
        and all(ENVELOPE_FLOOR <= r <= ENVELOPE_CEILING for r in far_ratios.values())
        and control_ratio > ENVELOPE_CEILING
    )
    acceptance_log(
        3, "regularizer tail decay, last-quarter modes", passed,
        f"max |beta|/envelope {desk_ratio:.3f} <= {ENVELOPE_CEILING} at eps={eps}, "
        + ", ".join(f"{r:.3f}" for r in far_ratios.values())
        + f" in [{ENVELOPE_FLOOR}, {ENVELOPE_CEILING}] at eps="
        + ", ".join(str(e) for e in far_ratios)
        + f"; hat control {control_ratio:.1f} "
        + ("rejected" if control_ratio > ENVELOPE_CEILING else "accepted")
        + "; max lambda^(s/2) beta: "
        + ", ".join(f"s={s}: {v:.2e}" for s, v in measured.items())
        + ", 1e-6 first holds from mode "
        + "/".join(str(k) for k in modes_for_1e6.values()),
    )
    assert passed


def test_criterion_04_smoothing_identity(desk_basis, rng, acceptance_log):
    # two runs of verify's smoothing-identity suite: 20 admissible pairs, with
    # delta = T/10 and eps = T/20 from the config defaults
    cfg = cli.ExperimentConfig(T=T_DESK)
    items = [
        item
        for _ in range(2)
        for item in cli._suite_smoothing_identity(cfg, None, desk_basis, rng)
    ]
    worst = max(item["measured"] for item in items)
    passed = all(item["passed"] for item in items)
    acceptance_log(
        4, "smoothing identity, 20 admissible pairs", passed,
        f"max rel discrepancy {worst:.2e} <= 1e-8",
    )
    assert passed


@pytest.fixture(scope="module")
def finite_speed_violations():
    """Pulse-support violations at desk scale and on refined discretizations.

    ``halved`` halves h and dt at the desk's 64 modes; ``refined`` also
    doubles the mode count.  The desk basis uses exact sine modes, so the
    violation is the Galerkin truncation of a C-infinity pulse: it falls with
    the mode count, not with h or dt.
    """
    T = 0.3
    results = {}
    for scale, (n, n_steps, n_modes) in (
        ("desk", (513, 1024, 64)),
        ("halved", (1025, 2048, 64)),
        ("refined", (1025, 2048, 128)),
    ):
        domain = geometry.interval(n=n)
        basis = spectral.eigensolve(domain, n_modes)
        region = geometry.filled_subdomain(domain, geometry.eikonal_distance(domain), T)
        band = 2 * max(domain.spacings) + 2 * T / n_steps
        pulses = [
            presets.pulse_control(T, 2, support=(0.05, 0.25), n_steps=n_steps),
            presets.two_sided_pulse_control(T, 2, support=(0.05, 0.25), n_steps=n_steps),
        ]
        results[scale] = [
            waveop.support_violation(waveop.control_to_state(f, basis), region, band)
            for f in pulses
        ]
    return results


def test_criterion_05_finite_speed_pulses(finite_speed_violations, acceptance_log):
    desk = finite_speed_violations["desk"]
    passed = all(v <= 1e-3 for v in desk)
    acceptance_log(
        5, "finite speed, pulse set at desk scale", passed,
        "violations " + ", ".join(f"{v:.2e}" for v in desk) + " <= 1e-3",
    )
    assert passed


def test_criterion_05_finite_speed_halving(finite_speed_violations, acceptance_log):
    desk = finite_speed_violations["desk"]
    ratios = [
        fine / coarse for fine, coarse in zip(finite_speed_violations["refined"], desk)
    ]
    budget = [
        fine / coarse for fine, coarse in zip(finite_speed_violations["halved"], desk)
    ]
    # at least first order when h, dt and 1/K are halved together
    passed = all(r <= 0.5 for r in ratios)
    acceptance_log(
        5, "finite speed, halving ratio", passed,
        "fine/coarse with h, dt, 1/K halved "
        + ", ".join(f"{r:.1e}" for r in ratios)
        + " <= 0.5; h, dt halved at 64 modes "
        + ", ".join(f"{r:.3f}" for r in budget),
    )
    assert passed


def test_criterion_06_unreachable_bump_stall(desk_basis, acceptance_log):
    y = presets.center_bump_target(desk_basis.domain)
    y_norm = desk_basis.h_norm(y)
    ratios = []
    for alpha in DEFAULT_ALPHA_SCHEDULE:
        res = synthesize_control(
            SynthesisProblem(target=y, T=0.3, alpha=alpha), desk_basis
        )
        ratios.append(res.final_residual / y_norm)
    passed = all(r >= 0.99 for r in ratios)
    acceptance_log(
        6, "unreachable bump stalls at target norm", passed,
        f"min residual ratio {min(ratios):.4f} >= 0.99 over the alpha schedule",
    )
    assert passed


def test_criterion_07_reachable_closure(desk_basis, baselines, acceptance_log):
    y_in = presets.in_range_target(desk_basis, T_DESK)
    res_in = synthesize_control(
        SynthesisProblem(target=y_in, T=T_DESK, alpha=0.0), desk_basis
    )

    y_smooth = presets.smooth_interior_target(desk_basis.domain)
    res_d1 = synthesize_control(
        SynthesisProblem(
            target=y_smooth, T=T_DESK, s=1.0,
            control_class="smooth_vanishing_at_T", alpha=0.0,
        ),
        desk_basis,
    )
    ref = baselines["d1_smooth_vanishing_relative_residual"]

    curve = residual_curve(
        SynthesisProblem(target=y_in, T=T_DESK), DEFAULT_ALPHA_SCHEDULE, desk_basis
    )
    finals = [r.final_residual for r in curve]
    monotone = all(b <= a + 1e-12 * finals[0] for a, b in zip(finals, finals[1:]))

    passed = (
        res_in.relative_residual <= 1e-6
        and res_d1.relative_residual <= 0.05
        and res_d1.relative_residual <= 100 * ref
        and monotone
    )
    acceptance_log(
        7, "reachable targets recovered", passed,
        f"in-range rel {res_in.relative_residual:.2e} <= 1e-6, "
        f"weighted-norm rel {res_d1.relative_residual:.2e} <= 0.05, "
        f"curve monotone {monotone}",
    )
    assert passed


def test_criterion_08_observability(desk_basis, baselines, acceptance_log):
    y_bump = presets.center_bump_target(desk_basis.domain)
    g_bump = waveop.observe(y_bump, 0.3, desk_basis)
    silent = waveop.f_norm(
        g_bump, desk_basis.boundary_weights, 0.3 / waveop.DEFAULT_TIME_STEPS
    ) / desk_basis.h_norm(y_bump)

    y_mode = presets.mode_target(desk_basis, 0)
    g_mode = waveop.observe(y_mode, T_DESK, desk_basis)
    loud = waveop.f_norm(
        g_mode, desk_basis.boundary_weights, T_DESK / waveop.DEFAULT_TIME_STEPS
    ) / desk_basis.h_norm(y_mode)

    ref = baselines["first_mode_trace_ratio"]
    passed = silent <= 1e-3 and loud >= 0.1 and abs(loud - ref) <= 1e-9 * ref
    acceptance_log(
        8, "observability split", passed,
        f"separated bump trace {silent:.2e} <= 1e-3, "
        f"first mode trace {loud:.4f} >= 0.1",
    )
    assert passed


def test_criterion_09_h1_experiment(desk_basis, baselines, acceptance_log):
    y_ramp = presets.ramp_target(desk_basis.domain)
    res_ramp = h1_star_experiment(y_ramp, T_DESK, desk_basis)
    ramp_ok = res_ramp.relative_residual <= 0.1 and res_ramp.relative_residual <= max(
        100 * baselines["h1_ramp_relative_residual"], 1e-10
    )

    y = presets.smooth_interior_target(desk_basis.domain)
    modal = synthesize_control(
        SynthesisProblem(
            target=y, T=T_DESK, s=1.0,
            control_class="smooth_vanishing_at_T", alpha=0.0,
        ),
        desk_basis,
    )
    misfit = lifted_final_state(modal.control, desk_basis) - y
    rescored = np.sqrt(h1_inner(misfit, misfit, desk_basis))
    direct = h1_star_experiment(y, T_DESK, desk_basis)
    inclusion = direct.final_residual <= rescored + 1e-6

    passed = ramp_ok and inclusion
    acceptance_log(
        9, "H1 synthesis with boundary values", passed,
        f"ramp rel {res_ramp.relative_residual:.2e} <= 0.1, "
        f"direct H1 misfit {direct.final_residual:.3e} <= "
        f"rescored weighted-norm misfit {rescored:.3e} + 1e-6",
    )
    assert passed


def test_criterion_10_oracle_cross_validation(
    interval_domain, desk_basis, acceptance_log
):
    f = presets.stored_reference_control(T_DESK, 2, n_steps=1024)
    u_modal = waveop.control_to_state(f, desk_basis)
    u_fd = waveop.fd_oracle_forward(f, interval_domain)
    rel = desk_basis.h_norm(u_modal - u_fd) / desk_basis.h_norm(
        u_fd
    )

    pulse = presets.pulse_control(T_DESK, 2, support=(0.1, 0.5), n_steps=1024, row=0)
    u = waveop.control_to_state(pulse, desk_basis)
    x = interval_domain.axes[0]
    expect = presets._pulse_samples(T_DESK - x, (0.1, 0.5), 4.0)
    travel = desk_basis.h_norm(u - expect) / desk_basis.h_norm(expect)

    passed = rel <= 2e-2 and travel <= 1e-2
    acceptance_log(
        10, "independent solver cross-check", passed,
        f"leapfrog vs transposition {rel:.2e} <= 2e-2, "
        f"traveling pulse {travel:.2e} <= 1e-2",
    )
    assert passed


def test_criterion_11_geometry(
    interval_distance, square_domain, acceptance_log
):
    t1 = float(interval_distance.max())
    err_1d = abs(t1 - 0.5)

    h_sq = max(square_domain.spacings)
    err_2d = abs(float(geometry.eikonal_distance(square_domain).max()) - 0.5)

    base = geometry.rectangle(shape=(65, 65), a11=lambda x, y: 1.0 + 0.0 * x)
    fast = geometry.rectangle(shape=(65, 65), a11=lambda x, y: 4.0 + 0.0 * x)
    tau_base = geometry.eikonal_distance(base)
    tau_fast = geometry.eikonal_distance(fast)
    scale_err = float(np.abs(tau_fast - tau_base / 2.0).max())
    h = max(base.spacings)

    passed = (
        err_1d <= 1e-12
        and err_2d <= 2 * h_sq
        and scale_err <= 2 * h
    )
    acceptance_log(
        11, "eikonal geometry", passed,
        f"1D fill-time err {err_1d:.1e}, 2D err {err_2d:.2e} <= {2 * h_sq:.2e}, "
        f"c=2 scaling err {scale_err:.2e} <= {2 * h:.2e}",
    )
    assert passed


def test_criterion_12_reproducibility(tmp_path, acceptance_log):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "preset = interval\n"
        "nx = 257\n"
        "n_modes = 32\n"
        "n_steps = 512\n"
        "budget = 120\n"
        "alphas = 1e-2,1e-3,1e-4\n"
        "target = in_range\n"
        "seed = 3\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        status = cli.main(
            ["control", "--config", str(cfg_file), "--out-dir", str(out)]
        )
        assert status == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = names == sorted(p.name for p in outs[1].iterdir())
    diffs = []
    for name in names:
        if name == "manifest.json":
            continue  # wall-clock timings differ by design
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            diffs.append(name)
    passed = same and not diffs and len(names) >= 4
    acceptance_log(
        12, "seeded runs byte-identical", passed,
        f"{len(names)} artifacts, differing: {diffs or 'none'} "
        "(manifest timings excluded)",
    )
    assert passed
