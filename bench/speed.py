"""Machine speed, sampled with a fixed reference loop while timed calls run.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, in CPU time as well as wall time, so the raw wall time of a
workload op says as much about the host as about the program. The sampler
measures that drift where it happens: while a timed call runs, an interval
timer interrupts it every PERIOD_S seconds and runs `reference()` once, a
fixed mix of Python-level work, small numpy arrays like the package's own,
and a stream over an array larger than the caches. Each pass's duration is
one speed sample; the passes' time is taken out of the call's wall time.
The mix matters: on a 2-vCPU VM, pure Python work alone drifted by more
than the workloads did and memory streaming alone by less, while the three
parts together tracked every in-process workload's op time (residual
log-sd 0.06-0.08 per op against 0.08-0.16 unscaled).

`normalised(wall, samples)` scales a wall time to a host that runs the
reference loop in REF_S seconds: wall * REF_S / median(samples). Rates
built from it are still items per second, at that fixed nominal speed, and
a faster program gives proportionally higher ones. CLI commands sample
inside their own process (cli_child.py); a process's set-up time takes its
samples just after the set-up, with `passes()`.

Single-threaded by design: the handler runs in the main thread between
bytecodes, and nothing here starts a thread or process.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1           # one reference pass per 100 ms of timed call
REF_S = 0.004            # nominal duration of one reference pass
SETUP_PASSES = 20        # passes just after a process's set-up

_RNG = np.random.default_rng(20220705)
_X = _RNG.normal(size=(300, 4))
_W = _RNG.normal(size=(4, 4)) / 2.0
_B = _RNG.normal(size=4)
_STREAM = _RNG.normal(size=1 << 20)      # 8 MB, more than the last-level cache


def reference() -> float:
    """Fixed work: dict bookkeeping, small-array numpy maths, a memory stream."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1600):
        key = (i * 7) % 31
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] if i % 3 else -1.0
    rows = [acc]
    x = _X
    for _ in range(32):
        h = np.tanh(x @ _W + _B)
        g = h.T @ h + np.eye(4)
        coef = np.linalg.solve(g, h.T @ x[:, 0])
        x = x * 0.999 + h * 0.001
        rows.append(float(coef.sum()) + float(np.abs(h).mean()))
    for k in range(4):
        rows.append(float(_STREAM[k::4].sum()))
    return float(sum(rows))


class Sampler:
    """Speed samples taken while timed calls run; off unless `enabled`.

    Takes over SIGALRM for the life of the process.
    """

    def __init__(self):
        self.enabled = False
        self._active = False
        self._samples: list[float] = []
        self._busy = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        if not self._active:
            return
        start = perf_counter()
        reference()
        elapsed = perf_counter() - start
        self._samples.append(elapsed)
        self._busy += elapsed

    def timed(self, fn, *args):
        """Run fn(*args) in process; returns (result, wall, speed samples)."""
        if not self.enabled:
            start = perf_counter()
            result = fn(*args)
            return result, perf_counter() - start, []
        self._samples, self._busy = [], 0.0
        start = perf_counter()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._active = False
            wall = perf_counter() - start - self._busy
        return result, wall, self._samples


def passes(n: int) -> list[float]:
    """Speed samples from `n` back-to-back reference passes."""
    samples = []
    for _ in range(n):
        start = perf_counter()
        reference()
        samples.append(perf_counter() - start)
    return samples


def normalised(wall: float, samples: list[float]) -> float:
    """Wall time scaled to a host that runs `reference()` in REF_S seconds."""
    return wall * REF_S / statistics.median(samples) if samples else wall

