"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --result FILE
                               [--trace] [--setup-only]

Starts the speed sampler (speed.py), imports ``wavecontrol.cli`` from the
``src`` directory next to this one, records the moment the import finished,
then runs the workload's subcommands in order through ``wavecontrol.cli.run``.
Every duration is recorded as measured and scaled to the reference speed.
A call that raises is recorded with its exception type and first message
line, and the repetition moves on.
With ``--trace`` the public functions of every wavecontrol module are wrapped
by ``tracer.Tracer`` first.  The result is written as JSON to ``--result``;
the program's own stdout is not part of the protocol.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402

speed.start()
IMPORT_START = time.perf_counter()

import wavecontrol.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()
IMPORT_END = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import LAYERS, UNTRACED, WORKLOADS  # noqa: E402


def _error_line(exc):
    lines = str(exc).splitlines()
    return f"{type(exc).__name__}: {lines[0] if lines else ''}"


def _install_tracer():
    modules = {name: importlib.import_module(f"wavecontrol.{name}") for name in LAYERS}
    tracer = Tracer()
    regularizer = modules["regularizer"]
    counted = [(regularizer, "quad", "regularizer.quad_evals")] if hasattr(regularizer, "quad") else []
    tracer.install(modules, counted, skip=UNTRACED)
    return tracer, regularizer


def run_workload(workload, seed, out_root, trace):
    tracer = regularizer = None
    if trace:
        tracer, regularizer = _install_tracer()
    calls = []
    start = time.perf_counter()
    for name, sub, overrides in WORKLOADS[workload]:
        t0 = time.perf_counter()
        status, error = None, None
        try:
            cfg = cli.ExperimentConfig(seed=seed, **overrides)
            status = cli.run(cfg, sub, out_dir=str(Path(out_root) / name))
        except Exception as exc:  # recorded per call; the repetition goes on
            error = _error_line(exc)
        t1 = time.perf_counter()
        calls.append(
            {"name": name, "sub": sub, "seconds": t1 - t0,
             "ref_seconds": speed.reference_seconds(t0, t1), "status": status, "error": error}
        )
    end = time.perf_counter()
    result = {"calls": calls, "workload_s": end - start,
              "workload_ref_s": speed.reference_seconds(start, end)}
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "iterations": dict(tracer.iterations),
            "wall_s": result["workload_s"],
        }
        cached = getattr(regularizer, "_beta_cached", None)
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
            result["trace"]["beta_cache"] = {"hits": info.hits, "misses": info.misses}
        tracer.uninstall()
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"wavecontrol imported from {cli.__file__}, not from {SRC}")
    # The parent times the set-up from the spawn; it is scaled by the speed
    # during the import, which is most of it.
    import_s = IMPORT_END - IMPORT_START
    result = {"imported_at": IMPORTED_AT,
              "setup_speed": speed.reference_seconds(IMPORT_START, IMPORT_END) / import_s}
    if not args.setup_only:
        result.update(run_workload(args.workload, args.seed, args.out, args.trace))
    speed.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
