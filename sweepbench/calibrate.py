"""Machine-speed calibration for the benchmark's timings.

On a shared host the same work can run 30-40% slower for tens of seconds at
a time, so two runs of identical code disagree by more than any useful
regression bound.  A fixed kernel that leans on what the sweeps lean on
(a NumPy sort, a random gather over a working set larger than the caches,
a Python dict loop) slows down in step with them, and it lives here, in the
benchmark, so no change to the program under test can move it.

Every time the benchmark reports is rescaled to a host that runs the
kernel in :data:`REFERENCE_S`: a rate is multiplied, a duration divided, by
``slowdown = kernel seconds now / REFERENCE_S``.  Unadjusted figures and
the slowdown are printed beside the adjusted ones.

Run as a script, this module is the helper process :class:`Calibrator`
talks to: one kernel measurement per line read from stdin.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Median kernel time on the host the bounds were set on (see meta.json).
REFERENCE_S = 0.0295

_SIZE = 400_000
_GATHERS = 2_000_000
_DICT_STEPS = 60_000
_REPEATS = 3


def _inputs():
    rng = np.random.default_rng(20070609)
    return rng.random(_SIZE), rng.integers(0, _SIZE, _GATHERS)


def _kernel(values, index) -> float:
    start = time.perf_counter()
    np.sort(values)
    float(values[index].sum())
    table = {}
    for i in range(_DICT_STEPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def _slowdown(values, index) -> float:
    return statistics.median(_kernel(values, index) for _ in range(_REPEATS)) / REFERENCE_S


def slowdown_here() -> float:
    """The host slowdown measured in this process (median of a few kernel
    runs); the kernel's ~40 MB of arrays live only while it runs."""
    return _slowdown(*_inputs())


class Calibrator:
    """Measures the slowdown in a helper process, so the kernel's arrays
    never count toward the benchmark process's peak resident memory."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def slowdown(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=60)
        self._helper.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    values, index = _inputs()
    for _ in sys.stdin:
        print(_slowdown(values, index), flush=True)


if __name__ == "__main__":
    _serve()
