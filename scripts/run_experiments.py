#!/usr/bin/env python3
"""Drive the showcase experiment set through the CLI.

Writes one artifact directory per experiment under --out-root (default
./out) and prints a one-line summary for each.  Every run is seeded and
reproducible; see the manifest.json in each directory for the exact config.
"""

import argparse
import json
import sys
from pathlib import Path

from wavecontrol.cli import ExperimentConfig, run

EXPERIMENTS = (
    ("eikonal_interval", "eikonal", {}),
    ("eikonal_square", "eikonal", {"preset": "square"}),
    ("eikonal_interval_bump", "eikonal", {"preset": "interval_bump"}),
    ("eikonal_square_bump", "eikonal", {"preset": "square_bump"}),
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
    (
        "control_smooth_class",
        "control",
        {"target": "smooth_interior", "s": 1.0, "control_class": "smooth_vanishing_at_T"},
    ),
    ("control_square", "control", {"preset": "square"}),
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
    ("verify_default", "verify", {}),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="out", help="root artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    root = Path(args.out_root)
    worst = 0
    for name, sub, overrides in EXPERIMENTS:
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
                    "trace_ratio",
                    "support_violation",
                    "max_abs_beta",
                )
                if k in summary
            ]
            note = ", ".join(f"{k}={summary[k]:.6g}" for k in keys)
        print(f"[{'ok' if status == 0 else 'FAIL'}] {name}: {note}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
