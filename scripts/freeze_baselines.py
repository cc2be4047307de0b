#!/usr/bin/env python3
"""Regenerate tests/fixtures/baselines.json from a reference run.

The density results this lab checks come with no convergence rates, so the
quantitative thresholds in the regression tests are self-referential: they
are measured once on the default desk-scale configuration by this script and
frozen with provenance.  Rerun only when an intentional numerical change
shifts them, and commit the diff together with the change that caused it.

Usage: python3 scripts/freeze_baselines.py [--out tests/fixtures/baselines.json]
"""

import argparse
import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

from wavecontrol import __version__, geometry, presets, spectral
from wavecontrol.control_lab import (
    SynthesisProblem,
    h1_star_experiment,
    synthesize_control,
    unreachability_bound,
)
from wavecontrol.regularizer import beta, bump_normalization, second_moment
from wavecontrol.waveop import DEFAULT_TIME_STEPS, f_norm, observe

DESK = "interval, 513 nodes, 64 modes, T=0.75, dt=T/1024, budget 500"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="tests/fixtures/baselines.json", help="output path"
    )
    args = parser.parse_args()

    domain = geometry.interval()
    basis = spectral.eigensolve(domain, 64)
    T = 0.75
    stamp = f"frozen {date.today().isoformat()}, wavecontrol {__version__}, {DESK}"
    entries = {}

    def put(name, value, note):
        entries[name] = {"value": value, "provenance": f"{stamp}; {note}"}
        print(f"{name} = {value:.17g}")

    put(
        "bump_normalization",
        bump_normalization(),
        "composite 32-point Gauss-Legendre rule of the unnormalized bump, 16 panels",
    )
    put(
        "second_moment",
        second_moment(),
        "composite 32-point Gauss-Legendre rule of t^2 * profile, 16 panels",
    )
    put(
        "beta_phase_1",
        beta(1.0, 1.0),
        "modal multiplier at unit phase, composite 32-point Gauss-Legendre rule",
    )

    y_smooth = presets.smooth_interior_target(domain)
    prob = SynthesisProblem(
        target=y_smooth, T=T, s=1.0, control_class="smooth_vanishing_at_T", alpha=0.0
    )
    res = synthesize_control(prob, basis)
    put(
        "d1_smooth_vanishing_relative_residual",
        res.relative_residual,
        "smooth_interior target, s=1, smooth_vanishing_at_T class, alpha=0",
    )

    y_ramp = presets.ramp_target(domain)
    res_h1 = h1_star_experiment(y_ramp, T, basis)
    put(
        "h1_ramp_relative_residual",
        res_h1.relative_residual,
        "ramp target 1-x, grid H1 objective with boundary lifting, alpha=0",
    )

    y1 = presets.mode_target(basis, 0)
    g = observe(y1, T, basis)
    put(
        "first_mode_trace_ratio",
        f_norm(g, basis.boundary_weights, T / DEFAULT_TIME_STEPS) / basis.h_norm(y1),
        "boundary-cylinder norm of the first mode's observation at T=0.75",
    )

    y_half = presets.center_bump_target(domain, center=0.3, halfwidth=0.1)
    region = geometry.filled_subdomain(domain, geometry.eikonal_distance(domain), 0.3)
    bound = unreachability_bound(y_half, region, band=2 * max(domain.spacings))
    prob_h = SynthesisProblem(target=y_half, T=0.3, alpha=1e-6)
    res_h = synthesize_control(prob_h, basis)
    put(
        "half_out_bump_plateau",
        res_h.final_residual,
        "frontier-straddling bump at T=0.3, alpha=1e-6 stagnation value",
    )
    put(
        "half_out_bump_support_bound",
        bound,
        "target mass outside the filled region dilated by 2h",
    )

    payload = {
        "description": (
            "Frozen reference values for regression tests; regenerate with "
            "scripts/freeze_baselines.py and commit intentional shifts."
        ),
        "entries": entries,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
