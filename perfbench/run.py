"""wavecontrol benchmark: per-subcommand wall time on three workloads.

    python3 perfbench/run.py --workload {interval_lab,square_sweep,square_bump,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition of a workload is one fresh child interpreter (child.py) that
runs the workload's subcommands in order through ``wavecontrol.cli.run``
with ``ExperimentConfig(seed=N)``.  One child runs at a time.  Repetitions
are started until S seconds have passed and the workload's MIN_REPS are
done; a traced run alternates untraced and traced repetitions, at least one
of each.  No repetition starts that could end past RUN_LIMIT_S.

Every call is checked (checks.py): invariants, summary values against
reference.json, and byte-identical artifacts across the run's repetitions.
Times are reported at a fixed reference speed of the machine (speed.py);
the times as measured are printed as well.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics: it alternates untraced and traced repetitions and aggregates the
spans of the traced ones (tracer.py).  Human-readable lines come first, then
a ``record:`` line with the environment and every distribution, and last a
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``failed`` counts calls that went wrong: an unexpected exception, a nonzero
status, a failed check or a nondeterministic artifact.  A call that ends in
the refusal reference.json records for it (the dense 2D eigensolve cap on
``square_bump``) is not in ``failed``, but it counts against ``ok_frac``
(and in ``fail_frac``), so the refusal stays visible in the metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_call, digests, load_reference  # noqa: E402
from tracer import layer_breakdown  # noqa: E402
from workloads import LAYERS, MIN_REPS, WORKLOADS  # noqa: E402

SUBCOMMANDS = ("eikonal", "eigen", "forward", "dual", "observe", "beta", "control", "h1star", "verify")

END_TO_END = {
    "setup_s": "s",
    "workload_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "control_lab.synthesize_control.s": "s",
    "control_lab.synthesize_control.calls": "count",
    "control_lab.cgls_iterations": "count",
    "control_lab.h1_star_experiment.s": "s",
    "control_lab.observability_test.s": "s",
    "control_lab.unreachability_bound.s": "s",
    "waveop.control_to_modal.s": "s",
    "waveop.control_to_modal.calls": "count",
    "waveop.observe.s": "s",
    "waveop.observe.calls": "count",
    "waveop.solve_dual.s": "s",
    "waveop.verify_duality.s": "s",
    "waveop.f_inner.calls": "count",
    "waveop.write_csv_s": "s",
    "regularizer.beta_table.s": "s",
    "regularizer.beta.calls": "count",
    "regularizer.quad_evals": "count",
    "regularizer.beta_cache_hit_ratio": "ratio",
    "regularizer.smooth_control.s": "s",
    "regularizer.regularize_state.s": "s",
    "spectral.eigensolve.s": "s",
    "spectral.eigensolve.calls": "count",
    "spectral.project.calls": "count",
    "spectral.reconstruct.calls": "count",
    "geometry.eikonal_distance.s": "s",
    "geometry.eikonal_distance.calls": "count",
    "geometry.write_csv_s": "s",
    "cli.run.calls": "count",
    "cli.artifact_bytes": "bytes",
    **{f"{sub}_s": "s" for sub in SUBCOMMANDS},
    "fail_frac": "fraction",
    "trace_overhead_s": "s",
    "untraced_s": "s",
}

SETUP_SAMPLES = 5  # import-only children make up any shortfall from MIN_REPS
RUN_LIMIT_S = 150.0  # no repetition starts that could end past this


class BenchError(Exception):
    pass


def percentile_line(values, unit):
    """Mean, median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    text = f"mean {statistics.fmean(values):.6g} {unit}, "
    text += f"median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        q = math.floor(100 * (1 - 10 / n))
        ordered = sorted(values)
        text += f", p{q} {ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]:.6g} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f" (n={n})"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports; None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_rev():
    """HEAD of the checkout; a checkout that is not a git repository has none."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(workload, seed, work, tag, trace=False, setup_only=False, timeout=None):
    """One child.py repetition; returns its result with the set-up time filled in.

    ``setup_wall_s`` is as measured, ``setup_s`` scaled to the reference speed.

    Artifacts land in ``work/tag``; the caller removes them when done.
    """
    out = work / tag
    result = work / f"{tag}.json"
    log = work / f"{tag}.stderr"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(log, "wb") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{tag}: child exited {proc.returncode}: " + " | ".join(tail))
    rep = json.loads(result.read_text())
    rep["setup_wall_s"] = rep.pop("imported_at") - spawned
    rep["setup_s"] = rep["setup_wall_s"] * rep.pop("setup_speed")
    return rep


class Bench:
    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.start = time.monotonic()
        self.reference = load_reference()[workload]
        self.overrides = {name: ov for name, _, ov in WORKLOADS[workload]}
        self.first_digests = {}
        self.outcomes = {"ok": 0, "refused": 0, "failed": 0}
        self.problems = []
        self.setups = []
        self.setup_walls = []
        self.reps = []  # untraced
        self.traced = []

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, tag, trace=False, setup_only=False):
        # A child still running at RUN_LIMIT_S + 25 s is stopped, so the run
        # ends inside the 180 s a benchmark run may take.
        timeout = max(1.0, RUN_LIMIT_S + 25.0 - self.elapsed())
        rep = run_child(self.workload, self.seed, self.work, tag, trace, setup_only, timeout)
        self.setups.append(rep["setup_s"])
        self.setup_walls.append(rep["setup_wall_s"])
        if not setup_only:
            rep["artifact_bytes"] = self.check(tag, rep["calls"], self.work / tag)
        shutil.rmtree(self.work / tag, ignore_errors=True)
        return rep

    def check(self, tag, calls, out):
        """Classify every call of one repetition; returns the bytes it wrote."""
        written = 0
        for call in calls:
            call_dir = out / call["name"]
            if call_dir.is_dir():
                written += sum(p.stat().st_size for p in call_dir.rglob("*") if p.is_file())
            expected = self.reference.get(call["name"], {})
            outcome, detail = check_call(call, self.overrides[call["name"]], expected, call_dir)
            if outcome == "ok":
                got = digests(call_dir)
                first = self.first_digests.setdefault(call["name"], got)
                if got != first:
                    changed = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
                    outcome, detail = "failed", f"artifacts differ from the first repetition: {changed}"
            call["outcome"] = outcome
            self.outcomes[outcome] += 1
            if outcome != "ok":
                self.problems.append({"rep": tag, "call": call["name"], "outcome": outcome,
                                      "detail": detail})
        return written

    def repeat(self, minimum, step):
        """Run ``step`` until ``minimum`` are done and the run's seconds are up."""
        done, longest = 0, 0.0
        while done < minimum or self.elapsed() < self.seconds:
            if done and self.elapsed() + longest > RUN_LIMIT_S:
                break
            began = time.monotonic()
            step()
            longest = max(longest, time.monotonic() - began)
            done += 1

    def run_end_to_end(self):
        for i in range(SETUP_SAMPLES - MIN_REPS[self.workload]):
            self.spawn(f"setup{i}", setup_only=True)
        self.repeat(MIN_REPS[self.workload],
                    lambda: self.reps.append(self.spawn(f"rep{len(self.reps)}")))

    def run_traced(self):
        def cycle():
            self.reps.append(self.spawn(f"rep{len(self.reps)}"))
            self.traced.append(self.spawn(f"traced{len(self.traced)}", trace=True))

        self.repeat(1, cycle)

    # -- metrics -------------------------------------------------------------

    def attempted(self):
        return sum(self.outcomes.values())

    def ok_frac(self):
        return self.outcomes["ok"] / self.attempted()

    def distributions(self):
        """Every end-to-end quantity as a list of samples (untraced repetitions).

        Times are scaled to the reference speed (speed.py); ``*_wall_s`` are
        the same times as measured.  A subcommand's sample is the sum over its
        completed calls in one repetition; repetitions where none completed
        give no sample.
        """
        dist = {
            "setup_s": self.setups,
            "setup_wall_s": self.setup_walls,
            "workload_s": [r["workload_ref_s"] for r in self.reps],
            "workload_wall_s": [r["workload_s"] for r in self.reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.reps],
        }
        for rep in self.reps:
            times = collections.defaultdict(float)
            for call in rep["calls"]:
                if call["error"] is None:
                    times[f"{call['sub']}_s"] += call["ref_seconds"]
            for name, seconds in times.items():
                dist.setdefault(name, []).append(seconds)
        return dist

    def layer_samples(self, rep):
        """Per-layer values of one traced repetition, times at the reference speed.

        The spans are wall times; each is scaled by the repetition's mean
        speed, which keeps self times and remainder adding up to the whole.
        """
        trace = rep["trace"]
        scale = rep["workload_ref_s"] / rep["workload_s"]
        values = dict.fromkeys(PER_LAYER, 0.0)
        breakdown = layer_breakdown(trace["spans"], trace["wall_s"])
        values.update(breakdown)
        for layer in LAYERS:
            values[f"{layer}.write_csv_s"] = sum(
                v for k, v in breakdown.items()
                if k.startswith(f"{layer}.write_") and k.endswith(".s")
            )
        values["control_lab.cgls_iterations"] = sum(
            v for k, v in trace["iterations"].items() if k.startswith("control_lab.")
        )
        values["regularizer.quad_evals"] = trace["counts"].get("regularizer.quad_evals", 0)
        cache = trace.get("beta_cache")
        if cache is None:
            del values["regularizer.beta_cache_hit_ratio"]
        else:
            lookups = cache["hits"] + cache["misses"]
            values["regularizer.beta_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        values["cli.artifact_bytes"] = rep["artifact_bytes"]
        return {k: v * scale if PER_LAYER[k] == "s" else v
                for k, v in values.items() if k in PER_LAYER}

    def metrics(self, trace):
        dist = self.distributions()
        if not trace:
            values = {name: statistics.median(dist[name])
                      for name in END_TO_END if name in dist}
            values["workload_s"] = typical_repetition(self.reps)
            values["ok_frac"] = self.ok_frac()
            return values, END_TO_END
        samples = [self.layer_samples(r) for r in self.traced]
        values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        for sub in SUBCOMMANDS:
            values[f"{sub}_s"] = statistics.median(dist.get(f"{sub}_s", [0.0]))
        values["fail_frac"] = 1.0 - self.ok_frac()
        values["trace_overhead_s"] = typical_repetition(self.traced) - typical_repetition(self.reps)
        return values, PER_LAYER


def typical_repetition(reps):
    """Sum over the workload's calls of each call's lower quartile (reference speed).

    Disturbances of the machine only add time.  They come in episodes of
    seconds that the speed scaling does not fully correct, and can cover
    half of a run; the lower quartile of a call's times over the run's
    repetitions keeps to the undisturbed ones.
    """
    per_call = collections.defaultdict(list)
    for rep in reps:
        for call in rep["calls"]:
            per_call[call["name"]].append(call["ref_seconds"])
    return sum(statistics.quantiles(times, n=4, method="inclusive")[0] if len(times) > 1
               else times[0] for times in per_call.values())


def report(bench, trace, env):
    values, units = bench.metrics(trace)
    dist = bench.distributions()
    attempted = bench.attempted()
    print(f"workload {bench.workload}  seed {bench.seed}  trace {int(trace)}  "
          f"repetitions {len(bench.reps)} untraced, {len(bench.traced)} traced")
    for name, samples in dist.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<15} {percentile_line(samples, unit)}")
    print(f"  fail_frac       {1.0 - bench.ok_frac():.6g} of {attempted} calls "
          f"({bench.outcomes['refused']} refused as recorded, {bench.outcomes['failed']} failed)")
    seen = collections.Counter((p["outcome"], p["call"], p["detail"]) for p in bench.problems)
    for (outcome, call, detail), count in seen.items():
        print(f"  [{outcome}] {call} in {count} repetition(s): {detail}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<38} {values[name]:.6g} {unit}")
    record = {"environment": env, "distributions": dist, "outcomes": bench.outcomes,
              "problems": bench.problems}
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bench.outcomes["failed"] == 0,
        "attempted": attempted,
        "failed": bench.outcomes["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))


def run_workload(workload, args, parent):
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=parent))
    try:
        bench = Bench(workload, args.seed, args.seconds, work)
        if args.trace:
            bench.run_traced()
        else:
            bench.run_end_to_end()
        report(bench, bool(args.trace), environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "wavecontrol" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'wavecontrol'} is missing",
              file=sys.stderr)
        return 2

    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            run_workload(workload, args, parent)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
