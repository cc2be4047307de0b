"""Benchmark workloads: ordered lists of (experiment, subcommand, config overrides).

Every workload runs the presets at their documented defaults; nothing is
resized.  The seed is not part of a workload: the harness passes it into
``ExperimentConfig(seed=...)`` for every call.
"""

# The 1D entries of scripts/run_experiments.py plus `dual`.  The regularizer
# layer does most of the work here (QAWO beta sweep in verify, mollifier
# class operator in the smooth-class control).
INTERVAL_LAB = (
    ("eikonal_interval", "eikonal", {}),
    ("eikonal_interval_bump", "eikonal", {"preset": "interval_bump"}),
    ("spectrum_interval", "eigen", {}),
    ("forward_reference", "forward", {}),
    ("dual_center_bump", "dual", {}),
    ("observe_center_bump", "observe", {"T": 0.3}),
    ("beta_default", "beta", {}),
    ("control_unreachable", "control", {"T": 0.3, "target": "center_bump"}),
    ("control_in_range", "control", {"target": "in_range"}),
    (
        "control_smooth_class",
        "control",
        {"target": "smooth_interior", "s": 1.0, "control_class": "smooth_vanishing_at_T"},
    ),
    ("h1star_ramp", "h1star", {"target": "ramp"}),
    ("verify_default", "verify", {}),
)


def _square_family(preset):
    return (
        ("eikonal", "eikonal", {"preset": preset}),
        ("eigen", "eigen", {"preset": preset}),
        ("forward", "forward", {"preset": preset}),
        ("observe", "observe", {"preset": preset, "T": 0.3}),
        ("control", "control", {"preset": preset}),
    )


WORKLOADS = {
    "interval_lab": INTERVAL_LAB,
    # Rank-K forward/adjoint einsums in waveop and control_lab, plus large CSV
    # artifacts; the regularizer is never called.
    "square_sweep": _square_family("square"),
    # Variable coefficients: fast marching in geometry, general eigensolve in
    # spectral (refused today above 5000 interior unknowns).
    "square_bump": _square_family("square_bump"),
}

# Fewest untraced repetitions in one end-to-end run, whatever --seconds says.
# interval_lab repetitions last 8-11 s and vary by about 15% on a shared
# 2-core machine, so its median needs several; one square_sweep repetition
# is 40 s.  A square_bump repetition takes 1.7 s with its set-up, and the
# machine's speed drifts over tens of seconds, so it gets about 35 s.
MIN_REPS = {"interval_lab": 3, "square_sweep": 1, "square_bump": 20}

# The wavecontrol modules whose public functions the traced run wraps.
LAYERS = ("geometry", "spectral", "waveop", "regularizer", "control_lab", "presets", "cli")

# The mollifier profile is the integrand of every QAWO quadrature: about half
# a million calls per interval_lab repetition.  A span per call would more
# than double the regularizer's measured time, so it is not wrapped; its time
# stays in the self time of the regularizer function that runs the quadrature.
UNTRACED = ("regularizer.bump_profile", "regularizer.bump_normalization")
