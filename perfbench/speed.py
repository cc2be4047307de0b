"""Machine-speed sampling, so that timings can be scaled to one fixed speed.

The shared hosts this benchmark runs on change speed by up to 2x over
seconds to minutes, and process CPU time changes with it, so raw wall times
of the same code spread by 20% from run to run.  ``start()`` makes a SIGALRM
handler time a fixed pure-Python kernel every ``INTERVAL_S`` inside the
benchmarked process itself, on the thread and at the moment the program runs.
The machine's speed at any moment is taken as 1 / (the latest kernel time).

``reference_seconds(a, b)`` integrates that speed over ``[a, b]`` and
multiplies by ``REFERENCE_KERNEL_S``: the seconds the interval would have
taken on a machine steadily running the kernel in ``REFERENCE_KERNEL_S``.
The kernel costs about 0.6% of the process's time.  Between two samples the
program's speed is assumed to follow the kernel's; the kernel is
interpreter-bound, like the program's hot loops (QUADPACK integrands, fast
marching), and on vectorised numpy code the scaling is coarser.
"""

import bisect
import math
import signal
import time

INTERVAL_S = 0.01
REFERENCE_KERNEL_S = 50e-6  # about the kernel's time on a 2 GHz Xeon vCPU

_starts = []  # perf_counter() when each kernel run began
_costs = []  # how long it took


def _kernel():
    s = 0.0
    for i in range(200):
        x = i * 1e-3
        s += math.exp(-1.0 / (1.0 + x * x)) * x
    return s


def _sample(signum=None, frame=None):
    t = time.perf_counter()
    _kernel()
    _starts.append(t)
    _costs.append(time.perf_counter() - t)


def start():
    _sample()  # so that every later moment has a sample before it
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(a, b, starts=None, costs=None):
    """What ``[a, b]`` (perf_counter times) takes at the reference speed.

    Each sample's speed holds from its start to the next sample's start; the
    first sample's speed also covers any time before it.
    """
    starts = _starts if starts is None else starts
    costs = _costs if costs is None else costs
    i = max(bisect.bisect_right(starts, a) - 1, 0)
    total, t = 0.0, a
    while t < b:
        end = min(starts[i + 1], b) if i + 1 < len(starts) else b
        total += (end - t) / costs[i]
        t, i = end, i + 1
    return REFERENCE_KERNEL_S * total
