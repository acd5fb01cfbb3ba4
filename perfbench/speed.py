"""Op timing: process CPU time, scaled to a reference machine speed.

The benchmark runs on one vCPU of a shared host, and two effects of the
other guests move its times from run to run.

- Wall time includes the stretches in which the host runs another guest
  instead (steal time), which come in bursts.  The guest kernel leaves steal
  out of a task's CPU time.  The program runs in one thread and blocks on
  nothing but page-cache reads and writes, which count as CPU time too, so on
  an idle host the two clocks agree.
- CPU time still drifts with the host's load, presumably through shared
  caches, memory bandwidth and clock speed: on a 2-vCPU Intel Xeon KVM guest,
  15-second means of one fixed cycle of synth samples moved by 22% over nine
  minutes (8% between quartiles).

So every timed call is followed by runs of a fixed reference kernel that
calls no lidarsynth code: a float32 matrix product, numpy elementwise math and
a sort, and a pure-Python loop, the kinds of work the program spends its time
in.  A slower host stretches the calls and the kernel together, but not by
the same share, probably because the kernel runs from cache and the program
also waits on memory.  Over six minutes of 10-second windows on that guest,
the log of a single-sample forward's CPU time rose 0.65 times as fast as the
log of the kernel's, and a synth sample's 0.9 times (correlation 0.97 and
0.96).  So a run's reported times are its CPU times multiplied by
``(REFERENCE_S / k) ** e``, where k is the median kernel time of the run and
e is the workload's ``elasticity`` (workloads.py).  A change to lidarsynth
moves only the calls and shows in full.  The kernel runs outside the timed
calls.
"""

import statistics
from time import perf_counter, process_time

import numpy as np

# the kernel's median CPU time on the guest above, so that scaled times read
# close to CPU times there; a fixed unit, not a setting
REFERENCE_S = 0.0032

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 768), dtype=np.float32)
_W = _rng.standard_normal((768, 768), dtype=np.float32)
_X = _rng.standard_normal(100_000)
# outputs are preallocated: a fresh large array would be mapped anew and
# page-faulted in, at a cost that depends on what the process freed before
_C = np.empty((64, 768), dtype=np.float32)
_Y = np.empty_like(_X)
_Z = np.empty_like(_X)


def _kernel() -> None:
    np.matmul(_A, _W, out=_C)
    np.multiply(_X, _X, out=_Y)
    np.negative(_Y, out=_Y)
    np.exp(_Y, out=_Y)
    np.abs(_X, out=_Z)
    np.sqrt(_Z, out=_Z)
    np.multiply(_Y, _Z, out=_Y)
    _Y.sort()
    s = 0
    for k in range(10_000):
        s += k * k


def kernel_seconds() -> float:
    """CPU seconds of one run of the kernel with its operands in cache.

    A first run refills the caches the preceding call evicted, so only the
    second is timed: otherwise a change to the program's memory footprint
    would move the kernel, and with it the scale of every time.
    """
    _kernel()
    c0 = process_time()
    _kernel()
    return process_time() - c0


class Clock:
    """Times program calls and samples the kernel after each one."""

    def __init__(self, warm_up: int = 20):
        for _ in range(warm_up):  # the first runs fill numpy's caches and are slow
            kernel_seconds()
        self.kernel: list[float] = []

    def time_call(self, fn):
        """fn's output, its CPU seconds and its wall seconds.

        Afterwards the kernel runs once per started 0.1 s of the call, at most
        20 times, so that its runs spread over the run as the calls do.
        """
        c0, t0 = process_time(), perf_counter()
        out = fn()
        cpu, wall = process_time() - c0, perf_counter() - t0
        for _ in range(min(20, 1 + int(cpu / 0.1))):
            self.kernel.append(kernel_seconds())
        return out, cpu, wall

    def factor(self, elasticity: float) -> float:
        """What this run's CPU seconds are multiplied by."""
        return (REFERENCE_S / statistics.median(self.kernel)) ** elasticity
