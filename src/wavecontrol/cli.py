"""Command-line front end: configs, experiment runs, verification suite.

Config files are flat ``key=value`` text, one pair per line, ``#`` comments
allowed.  Unknown keys are rejected so a typo cannot silently fall back to a
default.  Every run writes its artifacts plus a ``manifest.json`` recording
the exact config, package version, seed, and wall-clock timings.  Timings
make the manifest non-reproducible by design; all other artifacts are
byte-identical across reruns with the same config and seed.

Exit codes: 0 success, 1 verification failure, 2 config or usage error.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry, presets
from .control_lab import (
    DEFAULT_ALPHA_SCHEDULE,
    SynthesisProblem,
    _lifted_target,
    h1_star_experiment,
    observability_test,
    residual_curve,
    synthesize_control,
    unreachability_bound,
)
from .regularizer import (
    CONTROL_CLASSES,
    beta,
    beta_table,
    regularize_state,
    second_moment,
    smooth_control,
    write_beta_csv,
)
from .spectral import eigensolve, project, write_spectrum_csv
from .waveop import (
    DEFAULT_TIME_STEPS,
    BoundaryControl,
    _last_entry,
    control_to_state,
    f_norm,
    modal_factors,
    observe,
    random_control,
    random_smooth_control,
    random_state,
    solve_dual,
    support_violation,
    verify_duality,
    write_state_csv,
    write_trace_csv,
)

__all__ = ["ExperimentConfig", "ConfigError", "main", "run", "verify_suite"]

class ConfigError(Exception):
    """Bad key, bad value, or out-of-range parameter."""


_PRESETS = ("interval", "interval_bump", "square", "square_bump")


@dataclass
class ExperimentConfig:
    """Flat experiment parameters with validated ranges."""

    preset: str = "interval"
    coefficient_csv: str = ""
    nx: int = 0  # 0 means preset default (513 in 1D, 129 in 2D)
    ny: int = 0
    n_modes: int = 0  # 0 means 64 in 1D, 100 in 2D
    T: float = 0.75
    delta: float = -1.0  # negative means T/10
    epsilon: float = -1.0  # negative means delta/2
    s: float = 0.0
    alphas: tuple = DEFAULT_ALPHA_SCHEDULE
    budget: int = 500
    n_steps: int = DEFAULT_TIME_STEPS
    target: str = "center_bump"
    control_class: str = "all_of_F"
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.preset not in _PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {_PRESETS}")
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.delta < 0:
            self.delta = self.T / 10.0
        if self.epsilon < 0:
            self.epsilon = self.delta / 2.0
        if not 0 < self.epsilon < self.delta < self.T:
            raise ConfigError(
                f"need 0 < epsilon < delta < T, got epsilon={self.epsilon}, "
                f"delta={self.delta}, T={self.T}"
            )
        if not self.s >= 0:  # NaN included
            raise ConfigError(f"s must be nonnegative, got {self.s}")
        if self.budget < 1:
            raise ConfigError(f"budget must be at least 1, got {self.budget}")
        if self.n_steps < 2:
            raise ConfigError(f"n_steps must be at least 2, got {self.n_steps}")
        if not self.alphas:
            raise ConfigError("alphas must not be empty")
        if not all(a > 0 for a in self.alphas):  # NaN included
            raise ConfigError(f"alphas must be positive, got {self.alphas}")
        if list(self.alphas) != sorted(self.alphas, reverse=True) or len(
            set(self.alphas)
        ) != len(self.alphas):
            raise ConfigError(f"alphas must be strictly decreasing, got {self.alphas}")
        if not np.all(np.isfinite([self.s, *self.alphas])):
            raise ConfigError(f"s and alphas must be finite, got s={self.s}, alphas={self.alphas}")
        # the time quadratures stay far from the floating-point range inside this band
        if not (1e-6 <= self.epsilon and self.T <= 1e6):
            raise ConfigError(
                f"T, delta and epsilon must lie in [1e-6, 1e6], got T={self.T}, "
                f"delta={self.delta}, epsilon={self.epsilon}"
            )
        if self.target not in presets.TARGET_PRESETS:
            raise ConfigError(
                f"unknown target {self.target!r}, expected one of "
                f"{tuple(presets.TARGET_PRESETS)}"
            )
        if self.target == "ramp" and self.dimension != 1:
            raise ConfigError(f"target 'ramp' is 1D only, preset {self.preset!r} is 2D")
        if self.control_class not in CONTROL_CLASSES:
            raise ConfigError(f"unknown control_class {self.control_class!r}")
        if self.nx < 0 or self.ny < 0 or self.n_modes < 0:
            raise ConfigError("grid sizes and n_modes must be nonnegative")
        if min(self.shape) < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got shape {self.shape}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def dimension(self) -> int:
        return 2 if self.preset.startswith("square") else 1

    @property
    def shape(self) -> tuple:
        """Grid nodes per axis, with the preset defaults for zeros."""
        if self.dimension == 1:
            return (self.nx or 513,)
        return (self.nx or 129, self.ny or 129)

    @property
    def basis_size(self) -> int:
        """Basis size, with the preset default for zero."""
        return self.n_modes or (64 if self.dimension == 1 else 100)

    def as_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


def _parse_floats(value: str) -> tuple:
    return tuple(float(tok) for tok in value.split(",") if tok.strip())


_TYPE_PARSERS = {"int": int, "float": float, "tuple": _parse_floats, "str": str}
# value parser per config key, by the field's declared type
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value lines; unknown keys and bad values raise."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in kwargs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {value!r}")
    return ExperimentConfig(**kwargs)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(p.read_text())


# The last preset domain built, by preset and shape, and the last eigenpairs
# on it, by mode count (waveop._last_entry): consecutive runs on one config
# share them, and a new preset domain frees both.
_LAST_DOMAIN = {}
_LAST_BASIS = {}


def build_domain(cfg: ExperimentConfig) -> geometry.DomainSpec:
    if cfg.coefficient_csv:  # read on every run, since the file may change
        try:
            return geometry.domain_from_coefficient_csv(cfg.coefficient_csv, cfg.shape)
        except (OSError, ValueError) as exc:  # unreadable, malformed or off-grid
            raise ConfigError(f"coefficient_csv: {exc}") from exc
    return _last_entry(_LAST_DOMAIN, (cfg.preset, cfg.shape), lambda: _preset_domain(cfg))


def _preset_domain(cfg: ExperimentConfig) -> geometry.DomainSpec:
    _LAST_BASIS.clear()  # the eigenpairs of the domain this one replaces
    if cfg.preset == "interval":
        domain = geometry.interval(n=cfg.shape[0])
    elif cfg.preset == "interval_bump":
        coeff = geometry.radial_bump_coefficient(1.0, 0.5, (0.5,), 0.25)
        domain = geometry.interval(n=cfg.shape[0], a=coeff)
    elif cfg.preset == "square":
        domain = geometry.rectangle(shape=cfg.shape)
    else:
        coeff = geometry.radial_bump_coefficient(1.0, 0.5, (0.5, 0.5), 0.25)
        domain = geometry.rectangle(shape=cfg.shape, a11=coeff)  # a22=None repeats a11
    domain.coeff.setflags(write=False)  # shared by the runs that follow
    return domain


def build_basis(cfg: ExperimentConfig, domain=None):
    """A fresh basis, with an empty memo.  On the memoised preset domain its
    read-only eigenpairs are those of the last run with the same mode count."""
    domain = domain if domain is not None else build_domain(cfg)
    interior = int(np.prod([n - 2 for n in domain.shape]))
    if cfg.basis_size > interior:  # only runs that build a basis need this many nodes
        raise ConfigError(f"n_modes={cfg.basis_size} exceeds interior dimension {interior}")
    if domain is not _LAST_DOMAIN.get((cfg.preset, cfg.shape)):  # a table's, or a caller's
        return _eigenpairs(domain, cfg.basis_size)
    pairs = _last_entry(_LAST_BASIS, cfg.basis_size, lambda: _eigenpairs(domain, cfg.basis_size))
    return replace(pairs)


def _eigenpairs(domain, n_modes: int):
    try:
        basis = eigensolve(domain, n_modes)
    except NotImplementedError as exc:  # a mixed a12 term the fd operator lacks
        raise ConfigError(str(exc)) from exc
    for array in (basis.lambdas, basis.modes, basis.conormal_traces, basis.mass_weights,
                  basis.boundary_weights):
        array.setflags(write=False)
    return basis


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="")


@contextmanager
def _timed(timings: dict, stage: str):
    """Add the seconds the block takes to timings[stage]."""
    t0 = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


def _target_state(cfg: ExperimentConfig, basis):
    return presets.TARGET_PRESETS[cfg.target](basis, cfg.T, cfg.n_steps)


# ---------------------------------------------------------------------------
# subcommands


def _run_eikonal(cfg, out, domain, timings):
    with _timed(timings, "eikonal"):
        tau = geometry.eikonal_distance(domain)
        region = geometry.filled_subdomain(domain, tau, cfg.T)
    with _timed(timings, "artifacts"):
        geometry.write_eikonal_csvs(out / "tau.csv", out / "region.csv", domain, region)
    return {
        "T": cfg.T,
        "T_fill": float(tau.max()),
        "h": max(domain.spacings),
        "covered_fraction": float(np.mean(region.indicator)),
    }


def _run_eigen(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    with _timed(timings, "artifacts"):
        write_spectrum_csv(out / "spectrum.csv", basis)
    gram = basis.gram()
    off = float(np.abs(gram - np.eye(basis.n_modes)).max())
    return {
        "n_modes": basis.n_modes,
        "backend": basis.backend,
        "lambda_1": float(basis.lambdas[0]),
        "lambda_max": float(basis.lambdas[-1]),
        "gram_max_deviation": off,
    }


def _run_forward(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    n_bnd = len(basis.boundary_weights)
    f = presets.stored_reference_control(cfg.T, n_bnd, n_steps=cfg.n_steps)
    with _timed(timings, "forward"):
        u = control_to_state(f, basis)
    with _timed(timings, "eikonal"):
        region = geometry.filled_subdomain(domain, geometry.eikonal_distance(domain), cfg.T)
    band = 2 * max(domain.spacings) + 2 * cfg.T / cfg.n_steps
    with _timed(timings, "artifacts"):
        write_state_csv(out / "state.csv", domain, u)
    return {
        "T": cfg.T,
        "state_norm_H": basis.h_norm(u),
        "support_violation": support_violation(u, region, band),
        "dilation_band": band,
    }


def _run_dual(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    y = _target_state(cfg, basis)
    with _timed(timings, "dual"):
        snaps = solve_dual(y, cfg.T, basis, times=np.array([0.0, cfg.T]))
    with _timed(timings, "artifacts"):
        write_state_csv(out / "dual_t0.csv", domain, snaps[0])
    return {
        "T": cfg.T,
        "target": cfg.target,
        "dual_t0_norm_H": basis.h_norm(snaps[0]),
        "dual_T_norm_H": basis.h_norm(snaps[-1]),
    }


def _run_observe(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    y = _target_state(cfg, basis)
    with _timed(timings, "observe"):
        g = observe(y, cfg.T, basis, n_steps=cfg.n_steps)
    with _timed(timings, "artifacts"):
        write_trace_csv(out / "trace.csv", g, cfg.T)
    tr = f_norm(g, basis.boundary_weights, cfg.T / cfg.n_steps)
    yn = basis.h_norm(y)
    return {
        "T": cfg.T,
        "target": cfg.target,
        "trace_norm_F": tr,
        "target_norm_H": yn,
        "trace_ratio": tr / yn if yn > 0 else 0.0,
    }


def _run_beta(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    with _timed(timings, "beta"):
        values = beta_table(cfg.epsilon, basis.lambdas)
    with _timed(timings, "artifacts"):
        write_beta_csv(out / "beta.csv", basis, cfg.epsilon)
    return {
        "epsilon": cfg.epsilon,
        "max_abs_beta": float(np.abs(values).max()),
        "min_beta": float(values.min()),
        "first_beta": float(values[0]),
    }


def _write_residuals_csv(path: Path, history):
    with open(path, "w", newline="") as fh:
        fh.write("iter,residual\n")
        for i, r in enumerate(history):
            fh.write(f"{i},{r:.17g}\n")


def _run_control(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    # CGLS squares the weighted residual twice, so lambda^(s/2) past about 1e77
    # overflows it; refusing from 1e64 on leaves room for the data
    if cfg.s / 2 * np.log10(basis.lambdas[-1]) > 64:
        raise ConfigError(
            f"s={cfg.s} puts the norm weight lambda^(s/2) past 1e64 "
            f"at lambda={basis.lambdas[-1]:.6g}; the synthesis would overflow"
        )
    y = _target_state(cfg, basis)
    problem = SynthesisProblem(
        target=y,
        T=cfg.T,
        s=cfg.s,
        control_class=cfg.control_class,
        budget=cfg.budget,
        delta=cfg.delta,
        epsilon=cfg.epsilon,
        n_steps=cfg.n_steps,
    )
    with _timed(timings, "synthesis"):
        results = residual_curve(problem, cfg.alphas, basis)
    res = results[-1]
    with _timed(timings, "eikonal"):
        region = geometry.filled_subdomain(domain, geometry.eikonal_distance(domain), cfg.T)
    with _timed(timings, "artifacts"):
        _write_residuals_csv(out / "residuals.csv", res.residual_history)
        with open(out / "curve.csv", "w", newline="") as fh:
            fh.write("alpha,final_residual,relative_residual,iterations,converged\n")
            for a, r in zip(cfg.alphas, results):
                fh.write(
                    f"{a:.17g},{r.final_residual:.17g},{r.relative_residual:.17g},"
                    f"{r.iterations},{int(r.converged)}\n"
                )
        write_trace_csv(out / "control.csv", res.control.samples, cfg.T)
    return {
        "T": cfg.T,
        "s": cfg.s,
        "target": cfg.target,
        "control_class": cfg.control_class,
        "alpha": cfg.alphas[-1],
        "final_residual": res.final_residual,
        "target_norm": res.target_norm,
        "target_norm_H": basis.h_norm(y),
        "relative_residual": res.relative_residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "unreachability_bound": unreachability_bound(y, region),
        "unreachability_bound_dilated": unreachability_bound(
            y, region, band=2 * max(domain.spacings)
        ),
    }


def _run_h1star(cfg, out, domain, timings):
    with _timed(timings, "eigensolve"):
        basis = build_basis(cfg, domain)
    y = _target_state(cfg, basis)
    with _timed(timings, "lift"):  # the boundary lift, Q1 and the target split, kept for the solve
        _lifted_target(y, basis)
    with _timed(timings, "h1star"):
        res = h1_star_experiment(
            y,
            cfg.T,
            basis,
            budget=cfg.budget,
            delta=cfg.delta,
            epsilon=cfg.epsilon,
            n_steps=cfg.n_steps,
        )
    with _timed(timings, "artifacts"):
        _write_residuals_csv(out / "residuals.csv", res.residual_history)
        write_trace_csv(out / "control.csv", res.control.samples, cfg.T)
    return {
        "T": cfg.T,
        "target": cfg.target,
        "final_residual": res.final_residual,
        "target_norm": res.target_norm,
        "relative_residual": res.relative_residual,
        "iterations": res.iterations,
        "converged": res.converged,
    }


# ---------------------------------------------------------------------------
# verification suite


def _item(name, measured, bound, passed=None) -> dict:
    """One verify record; it passes when measured <= bound unless told otherwise."""
    return {
        "item": name,
        "measured": measured,
        "bound": bound,
        "passed": bool(measured <= bound if passed is None else passed),
    }


def _suite_adjointness(cfg, tau, basis, rng):
    worst = 0.0
    for trial in range(20):
        f = random_control(basis, cfg.T, rng, n_steps=cfg.n_steps)
        y = random_state(basis, rng)
        worst = max(worst, verify_duality(f, y, basis))
    return [_item("duality_relative_discrepancy_max_20_trials", worst, 1e-12)]


# (lambda_1, bound) of the plain presets with a closed-form first eigenvalue
_ANALYTIC_LAMBDA1 = {"interval": (np.pi**2, 1e-3), "square": (2 * np.pi**2, 1e-2)}


def _suite_spectral(cfg, tau, basis, rng):
    gram = basis.gram()
    off = float(np.abs(gram - np.eye(basis.n_modes)).max())
    lam = basis.lambdas
    items = [
        _item("gram_identity_deviation", off, 1e-10),
        _item(
            "eigenvalues_sorted_positive",
            float(lam[0]),
            0.0,
            lam[0] > 0 and np.all(np.diff(lam) >= -1e-12 * lam[-1]),
        ),
    ]
    if cfg.preset in _ANALYTIC_LAMBDA1 and not cfg.coefficient_csv:
        exact, bound = _ANALYTIC_LAMBDA1[cfg.preset]
        items.append(_item("lambda1_vs_analytic", abs(lam[0] - exact) / exact, bound))
    return items


def _beta_sweep(lambdas) -> list:
    """|beta| <= 1 and the small-phase expansion over a fixed width sweep."""
    m2 = second_moment()
    max_abs = 0.0
    taylor_worst = 0.0
    for eps in np.logspace(0, -4, 20):
        b = beta_table(eps, lambdas)
        max_abs = max(max_abs, float(np.abs(b).max()))
        om2 = eps**2 * lambdas
        mask = np.sqrt(om2) <= 0.3
        if np.any(mask):
            ratio = np.abs(1 - b[mask]) / (1.1 * om2[mask] / 2 * m2)
            taylor_worst = max(taylor_worst, float(ratio.max()))
    return [
        _item("beta_bounded_by_one", max_abs, 1.0),
        _item("beta_taylor_bound_small_phase", taylor_worst, 1.0),
    ]


def _suite_regularizer(cfg, tau, basis, rng):
    lam = basis.lambdas
    k = int(rng.integers(0, basis.n_modes))
    smoothed = regularize_state(basis.modes[k], cfg.epsilon, basis)
    coeffs = project(smoothed, basis)
    expect = np.zeros(basis.n_modes)
    expect[k] = beta(cfg.epsilon, lam[k])
    dev = float(np.abs(coeffs - expect).max())
    return _beta_sweep(lam) + [_item("regularizer_diagonal_in_modes", dev, 1e-10)]


def _suite_finite_speed(cfg, tau, basis, rng):
    n_bnd = len(basis.boundary_weights)
    T = min(cfg.T, 0.3)
    # a face midpoint, not the 2D corner (row 0), where every trace vanishes
    row = basis.domain.face_midpoint_rows()[0]
    f = presets.pulse_control(T, n_bnd, support=(0.1 * T, 0.6 * T), n_steps=cfg.n_steps, row=row)
    u = control_to_state(f, basis)
    region = geometry.filled_subdomain(basis.domain, tau, T)
    band = 2 * max(basis.domain.spacings) + 2 * T / cfg.n_steps
    viol = support_violation(u, region, band)
    # a zero state has no mass outside the region, and shows nothing
    passed = viol <= 1e-3 and basis.h_norm(u) > 0
    return [_item("pulse_mass_outside_filled_region", viol, 1e-3, passed)]


def _suite_smoothing_identity(cfg, tau, basis, rng):
    # pairing with the raw control equals pairing of the regularized state
    # with the smoothed control, per the kernel antisymmetrization
    trials = 10
    bvals = beta_table(cfg.epsilon, basis.lambdas)
    raw, states = [], []
    support = (cfg.delta, cfg.T)
    for _ in range(trials):  # the generator draws f, then y, per trial
        raw.append(random_smooth_control(basis, cfg.T, rng, cfg.n_steps, support).samples)
        states.append(random_state(basis, rng))
    # the trials, stacked row-wise, are smoothed in one call
    raw = np.vstack(raw)
    smoothed = smooth_control(BoundaryControl(raw, cfg.T), cfg.epsilon, cfg.delta).samples
    # one factor object serves the forward map, the observation and the norms
    fac = modal_factors(basis, cfg.T, cfg.n_steps)
    worst = 0.0
    for y, f, f_eps in zip(states, np.split(raw, trials), np.split(smoothed, trials)):
        alphas = project(y, basis)
        lhs = float(fac.pair(f_eps) @ alphas)
        rhs = float(fac.pair(f) @ (bvals * alphas))
        g = fac.expand(alphas)
        scale = math.sqrt(fac.inner(f, f)) * math.sqrt(fac.inner(g, g))
        worst = max(worst, abs(lhs - rhs) / scale if scale > 0 else 0.0)
    return [_item("mollified_control_vs_regularized_state_pairing", worst, 1e-8)]


_OBSERVABILITY_WINDOW = 0.05  # the observation window's onset; verify needs T beyond it


def _suite_observability(cfg, tau, basis, rng):
    T = 0.3
    w = _OBSERVABILITY_WINDOW
    y = presets.center_bump_target(basis.domain)
    band = 2 * max(basis.domain.spacings)
    verdict = observability_test(y, T, w, 1e-3, basis, tau, band=band, n_steps=cfg.n_steps)
    y1 = presets.mode_target(basis, 0)
    v2 = observability_test(y1, cfg.T, w, 1e-3, basis, tau, n_steps=cfg.n_steps)
    return [
        _item(
            "center_bump_trace_and_support",
            verdict.trace_ratio,
            1e-3,
            verdict.passed and not verdict.observable,
        ),
        _item(
            "first_mode_trace_visible",
            v2.trace_ratio,
            0.1,
            v2.observable and v2.trace_ratio >= 0.1,
        ),
    ]


def _suite_synthesis(cfg, tau, basis, rng):
    y_in = presets.in_range_target(basis, cfg.T, cfg.n_steps)
    prob = SynthesisProblem(target=y_in, T=cfg.T, budget=cfg.budget, n_steps=cfg.n_steps)
    res = synthesize_control(prob, basis)
    hist = res.residual_history
    y_bump = presets.center_bump_target(basis.domain)
    prob2 = SynthesisProblem(
        target=y_bump, T=0.3, alpha=cfg.alphas[-1], budget=cfg.budget, n_steps=cfg.n_steps
    )
    res2 = synthesize_control(prob2, basis)
    bump_norm = basis.h_norm(y_bump)  # zero when the grid misses the bump
    ratio = res2.final_residual / bump_norm if bump_norm > 0 else 0.0
    return [
        _item("in_range_target_relative_residual", res.relative_residual, 1e-6),
        _item(
            "cg_residual_history_nonincreasing",
            float(np.max(np.diff(hist))) if len(hist) > 1 else 0.0,
            0.0,
            np.all(np.diff(hist) <= 1e-12 * hist[0]),
        ),
        _item("unreachable_bump_residual_ratio", ratio, 0.99, ratio >= 0.99),
    ]


# the invariant registry, in report order; every suite takes (cfg, tau,
# basis, rng), tau the eikonal distance of basis.domain, marched once per
# verify, and returns a list of _item records
_SUITES = (
    ("adjointness", _suite_adjointness),
    ("spectral", _suite_spectral),
    ("regularizer", _suite_regularizer),
    ("finite_speed", _suite_finite_speed),
    ("smoothing_identity", _suite_smoothing_identity),
    ("observability", _suite_observability),
    ("synthesis", _suite_synthesis),
)


class _Draws:
    """Seeded draws for the suites from the stdlib Mersenne Twister.

    It offers the two ``numpy.random.Generator`` methods the suites call.
    ``random`` is loaded with numpy already; ``numpy.random`` would load
    OpenSSL through ``secrets`` and cost about 6 MB resident.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def standard_normal(self, shape: tuple) -> np.ndarray:
        """Box-Muller over 53-bit uniforms, u1 in (0, 1] so its log is finite."""
        n = math.prod(shape)
        half = (n + 1) // 2
        bits = np.frombuffer(self._random.randbytes(16 * half), dtype="<u8") >> 11
        u = bits * 2.0**-53
        radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
        angle = 2.0 * np.pi * u[half:]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """One integer drawn uniformly from [low, high)."""
        return self._random.randrange(low, high)


def verify_suite(cfg: ExperimentConfig, domain=None) -> dict:
    """Run every invariant suite on ``domain`` (built from cfg when None);
    returns the machine-readable report."""
    if not cfg.T > _OBSERVABILITY_WINDOW:
        raise ConfigError(
            f"verify needs T > {_OBSERVABILITY_WINDOW}, the observability window, got {cfg.T}"
        )
    rng = _Draws(cfg.seed)
    domain = domain if domain is not None else build_domain(cfg)
    basis = build_basis(cfg, domain)
    suites = {}
    timings = {}
    with _timed(timings, "eikonal"):
        tau = geometry.eikonal_distance(domain)
    for name, suite in _SUITES:
        with _timed(timings, name):
            suites[name] = suite(cfg, tau, basis, rng)
    all_passed = all(item["passed"] for items in suites.values() for item in items)
    return {
        "version": __version__,
        "seed": cfg.seed,
        "preset": cfg.preset,
        "all_passed": all_passed,
        "suites": suites,
        "timings": timings,
    }


def _run_verify(cfg, out, domain, timings):
    report = verify_suite(cfg, domain)
    timings.update(report.pop("timings"))
    for name, items in report["suites"].items():
        for item in items:
            status = "pass" if item["passed"] else "FAIL"
            print(f"[{status}] {name}: {item['item']} = {item['measured']:.6g}")
    return report


_RUNNERS = {
    "eikonal": _run_eikonal,
    "eigen": _run_eigen,
    "forward": _run_forward,
    "dual": _run_dual,
    "observe": _run_observe,
    "beta": _run_beta,
    "control": _run_control,
    "h1star": _run_h1star,
    "verify": _run_verify,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig, subcommand: str, out_dir: str | None = None) -> int:
    """Execute one subcommand; writes artifacts and the manifest."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    with _timed(timings, "total"):
        with _timed(timings, "domain"):
            domain = build_domain(cfg)
        # each runner writes its artifacts and returns its summary; verify's is the report
        payload = _RUNNERS[subcommand](cfg, out, domain, timings)
        _write_json(out / ("report.json" if subcommand == "verify" else "summary.json"), payload)
    _write_json(
        out / "manifest.json",
        {
            "subcommand": subcommand,
            "version": __version__,
            "seed": cfg.seed,
            "config": cfg.as_dict(),
            "timings": timings,
        },
    )
    return 0 if payload.get("all_passed", True) else 1


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="wavecontrol",
        description="Boundary-control experiments for the wave equation.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out-dir", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {args.seed}")
            cfg.seed = args.seed
        return run(cfg, args.subcommand, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
