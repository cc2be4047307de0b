"""Output checks for one subcommand call of a benchmark repetition.

Three kinds of check, all on the artifacts a call wrote:

* the program's own invariants at their existing bounds (``verify`` passes,
  Gram deviation at most 1e-10, in-range residual at most 1e-6);
* every field of ``summary.json`` against ``reference.json`` (values taken
  from the seed commit, with a tolerance stated per field);
* byte-identical artifacts, ``manifest.json`` excepted, across repetitions
  with the same seed (the caller compares the digests returned here).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

GRAM_BOUND = 1e-10
IN_RANGE_BOUND = 1e-6

# |got - ref| <= atol + rtol * |ref|.  Closed-form and direct quantities are
# held to ~1e-9 relative; near-zero fields by atol.  CGLS outputs get what a
# different BLAS reduction order moves them by, with margin: one OpenBLAS
# thread instead of two moved the smooth-class control residual by 1.4e-4
# relative and the h1star residual (about 2e-12) by half of itself.
TOLERANCES = {
    "T": {"rtol": 0.0, "atol": 0.0},
    "T_fill": {"rtol": 1e-9, "atol": 0.0},
    "h": {"rtol": 0.0, "atol": 0.0},
    "covered_fraction": {"rtol": 1e-9, "atol": 0.0},
    "n_modes": {"rtol": 0.0, "atol": 0.0},
    "lambda_1": {"rtol": 1e-9, "atol": 0.0},
    "lambda_max": {"rtol": 1e-9, "atol": 0.0},
    "gram_max_deviation": {"rtol": 0.0, "atol": 1e-10},
    "state_norm_H": {"rtol": 1e-9, "atol": 1e-14},
    "support_violation": {"rtol": 1e-6, "atol": 1e-12},
    "dilation_band": {"rtol": 1e-12, "atol": 0.0},
    "dual_t0_norm_H": {"rtol": 1e-9, "atol": 1e-14},
    "dual_T_norm_H": {"rtol": 1e-9, "atol": 1e-14},
    "target_norm_H": {"rtol": 1e-9, "atol": 1e-14},
    "trace_norm_F": {"rtol": 1e-9, "atol": 1e-14},
    "trace_ratio": {"rtol": 1e-9, "atol": 1e-14},
    "epsilon": {"rtol": 1e-12, "atol": 0.0},
    "max_abs_beta": {"rtol": 1e-9, "atol": 1e-14},
    "min_beta": {"rtol": 1e-9, "atol": 1e-14},
    "first_beta": {"rtol": 1e-9, "atol": 1e-14},
    "s": {"rtol": 0.0, "atol": 0.0},
    "alpha": {"rtol": 0.0, "atol": 0.0},
    "final_residual": {"rtol": 1e-2, "atol": 1e-10},
    "target_norm": {"rtol": 1e-9, "atol": 1e-14},
    "relative_residual": {"rtol": 1e-2, "atol": 1e-10},
    "iterations": {"rtol": 0.0, "atol": 2},
    "unreachability_bound": {"rtol": 1e-9, "atol": 1e-14},
    "unreachability_bound_dilated": {"rtol": 1e-9, "atol": 1e-14},
}


def load_reference():
    """Per workload, per call: the summary values or the refusal it ended in."""
    return json.loads(REFERENCE.read_text())


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def digests(out_dir: Path) -> dict:
    """sha256 of every artifact except the (timing-bearing) manifest."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


class CheckFailed(Exception):
    pass


def invariants(sub: str, overrides: dict, out_dir: Path) -> None:
    if sub == "verify":
        report = _read_json(out_dir / "report.json")
        if report.get("all_passed") is not True:
            bad = [
                f"{suite}.{item['item']}"
                for suite, items in report.get("suites", {}).items()
                for item in items
                if not item["passed"]
            ]
            raise CheckFailed(f"verify all_passed is not true: {bad}")
    elif sub == "eigen":
        dev = _read_json(out_dir / "summary.json")["gram_max_deviation"]
        if not dev <= GRAM_BOUND:
            raise CheckFailed(f"gram_max_deviation {dev:g} > {GRAM_BOUND:g}")
    elif sub == "control" and overrides.get("target") == "in_range":
        rel = _read_json(out_dir / "summary.json")["relative_residual"]
        if not rel <= IN_RANGE_BOUND:
            raise CheckFailed(f"in_range relative_residual {rel:g} > {IN_RANGE_BOUND:g}")


def matches_reference(expected: dict, out_dir: Path) -> None:
    """Compare summary.json field by field; numbers within |d| <= atol + rtol*|ref|."""
    summary = _read_json(out_dir / "summary.json")
    if set(summary) != set(expected):
        raise CheckFailed(
            f"summary fields differ from reference: {sorted(set(summary) ^ set(expected))}"
        )
    for key, ref in expected.items():
        got = summary[key]
        if not is_number(ref):
            ok = got == ref
        else:
            tol = TOLERANCES[key]
            ok = (
                is_number(got)
                and math.isfinite(got)
                and abs(got - ref) <= tol["atol"] + tol["rtol"] * abs(ref)
            )
        if not ok:
            raise CheckFailed(f"summary {key} = {got!r}, reference {ref!r}")


def check_call(call: dict, overrides: dict, reference: dict, out_dir: Path):
    """Classify one call as ``ok``, ``refused`` (a documented refusal) or ``failed``.

    Returns ``(outcome, detail)``.  A refusal is a call that raised exactly
    the exception the reference records for it; a call that raises anything
    else, returns a nonzero status or fails a check has failed.
    """
    if call["error"] is not None:
        refusal = reference.get("refused")
        if refusal and call["error"].startswith(refusal):
            return "refused", call["error"]
        return "failed", call["error"]
    if call["status"] != 0:
        return "failed", f"exit status {call['status']}"
    try:
        invariants(call["sub"], overrides, out_dir)
        if "summary" in reference:
            matches_reference(reference["summary"], out_dir)
    except CheckFailed as exc:
        return "failed", str(exc)
    return "ok", None
