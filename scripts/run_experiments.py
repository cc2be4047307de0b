#!/usr/bin/env python3
"""Drive the showcase experiment set through the CLI.

Writes one artifact directory per experiment under --out-root (default
./out) and prints a one-line summary for each: its headline numbers (the
CGLS ``iterations`` of every control and h1star run among them) and the
seconds of every stage the run's manifest times (its ``timings``, in the
manifest's key order, ``total`` among them).  Every run is seeded and
reproducible; see the manifest.json in each directory for the exact config.
The coefficient tables that ``eikonal_mixed_65`` and ``eikonal_jump_65``
read are written into the out root first.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from wavecontrol.cli import ExperimentConfig, run

# a coefficient_csv named here is the file of that name under --out-root
MIXED_TABLE = "mixed_65.csv"
JUMP_TABLE = "jump_65.csv"

EXPERIMENTS = (
    ("eikonal_interval", "eikonal", {}),
    ("eikonal_square", "eikonal", {"preset": "square"}),
    ("eikonal_interval_bump", "eikonal", {"preset": "interval_bump"}),
    ("eikonal_square_bump", "eikonal", {"preset": "square_bump"}),
    (
        "eikonal_mixed_65",
        "eikonal",
        {"preset": "square", "nx": 65, "ny": 65, "coefficient_csv": MIXED_TABLE},
    ),
    (
        "eikonal_jump_65",
        "eikonal",
        {"preset": "square", "nx": 65, "ny": 65, "coefficient_csv": JUMP_TABLE},
    ),
    ("spectrum_interval", "eigen", {}),
    ("spectrum_square", "eigen", {"preset": "square"}),
    ("forward_reference", "forward", {}),
    ("forward_square", "forward", {"preset": "square"}),
    (
        "forward_square_bump_33",
        "forward",
        {"preset": "square_bump", "nx": 33, "ny": 33, "n_modes": 40},
    ),
    ("dual_center_bump", "dual", {}),
    ("observe_center_bump", "observe", {"T": 0.3}),
    ("observe_square", "observe", {"preset": "square", "T": 0.3}),
    ("observe_rectangle_33x17", "observe", {"preset": "square", "nx": 33, "ny": 17, "T": 0.3}),
    ("beta_default", "beta", {}),
    ("control_unreachable", "control", {"T": 0.3, "target": "center_bump"}),
    ("control_in_range", "control", {"target": "in_range"}),
    ("control_smooth", "control", {"target": "smooth_interior", "control_class": "smooth"}),
    (
        "control_smooth_class",
        "control",
        {"target": "smooth_interior", "s": 1.0, "control_class": "smooth_vanishing_at_T"},
    ),
    ("control_square", "control", {"preset": "square"}),
    (
        "control_in_range_square_33",
        "control",
        {"preset": "square", "nx": 33, "ny": 33, "n_modes": 40, "target": "in_range"},
    ),
    (
        "control_square_smooth",
        "control",
        {
            "preset": "square",
            "target": "smooth_interior",
            "s": 1.0,
            "control_class": "smooth_vanishing_at_T",
        },
    ),
    ("h1star_ramp", "h1star", {"target": "ramp"}),
    ("h1star_interval_bump", "h1star", {"preset": "interval_bump", "target": "ramp"}),
    (
        "h1star_square_33",
        "h1star",
        {"preset": "square", "nx": 33, "ny": 33, "n_modes": 40, "target": "smooth_interior"},
    ),
    ("verify_default", "verify", {}),
)


def mixed_coefficients(x, y):
    """A smooth medium with a mixed term a12 != 0: the eikonal's graph fallback."""
    a11 = 1.0 + 0.5 * np.sin(3 * x) * np.cos(2 * y)
    a12 = 0.25 * np.cos(2 * x + y)
    a22 = 0.7 + 0.4 * x * y
    return a11, a12, a22


def jump_coefficients(x, y):
    """Isotropic a = 1 | 100 across x = 0.5 with a12 = 0.

    Fast marching runs on it, and along the jump the two-term upwind root
    falls below a neighbour, so the one-sided update is taken.
    """
    a = np.where(x < 0.5, 1.0, 100.0)
    return a, np.zeros_like(a), a


TABLES = {MIXED_TABLE: mixed_coefficients, JUMP_TABLE: jump_coefficients}


def write_coefficient_table(path, coefficients, n=65):
    """Node table ``i,j,a11,a12,a22`` of the medium on the n x n unit grid."""
    x, y = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")
    a11, a12, a22 = coefficients(x, y)
    with open(path, "w", newline="") as fh:  # "\n" on every platform
        fh.write("i,j,a11,a12,a22\n")
        for (i, j), *values in zip(np.ndindex(n, n), a11.flat, a12.flat, a22.flat):
            fh.write(f"{i},{j}," + ",".join(f"{v:.17g}" for v in values) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="out", help="root artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    root = Path(args.out_root)
    root.mkdir(parents=True, exist_ok=True)
    for name, coefficients in TABLES.items():
        write_coefficient_table(root / name, coefficients)
    worst = 0
    for name, sub, overrides in EXPERIMENTS:
        if "coefficient_csv" in overrides:
            overrides = {**overrides, "coefficient_csv": str(root / overrides["coefficient_csv"])}
        cfg = ExperimentConfig(seed=args.seed, **overrides)
        out_dir = root / name
        status = run(cfg, sub, out_dir=str(out_dir))
        worst = max(worst, status)
        summary_path = out_dir / "summary.json"
        note = ""
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text())
            keys = [
                k
                for k in (
                    "T_fill",
                    "lambda_1",
                    "relative_residual",
                    "iterations",
                    "trace_ratio",
                    "support_violation",
                    "max_abs_beta",
                )
                if k in summary
            ]
            note = ", ".join(f"{k}={summary[k]:.6g}" for k in keys)
        timings = json.loads((out_dir / "manifest.json").read_text())["timings"]
        seconds = ", ".join(f"{stage} {t:.3f} s" for stage, t in timings.items())
        print(f"[{'ok' if status == 0 else 'FAIL'}] {name}: {note} ({seconds})")
    return worst


if __name__ == "__main__":
    sys.exit(main())
