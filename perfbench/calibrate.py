"""Times a fixed kernel on request, to measure how fast the host runs.

Started by run.py, which writes one line to stdin for each timing it wants
and reads the seconds back as one line from stdout.  The kernel runs in a
process of its own so that run.py stays small: a worker inherits the peak
RSS of the process that starts it, and its ``ru_maxrss`` would count the
kernel's arrays.
"""
from __future__ import annotations

import mmap
import sys
import time

import numpy

_RNG = numpy.random.default_rng(0)
_DATA = _RNG.integers(0, 1 << 30, size=1 << 20)
_INDEX = _RNG.permutation(1 << 20)


def calibrate() -> float:
    """Seconds for a fixed mix of the three kinds of work the workloads do,
    in about equal parts: interpreter steps, gathers over an 8 MiB array,
    and page faults on fresh 8 MiB mappings."""
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) & 0xFFFF
    for _ in range(4):
        acc += int(_DATA[_INDEX][::7].sum() & 0xFF)
    for _ in range(8):
        region = mmap.mmap(-1, 8 << 20)
        pages = numpy.frombuffer(region, dtype=numpy.uint8)[::mmap.PAGESIZE]
        pages[:] = 1  # one write, and so one fault, per page
        del pages
        region.close()
    return time.perf_counter() - start


def main() -> int:
    calibrate()  # the first call pays for allocating the arrays' pages
    for _ in sys.stdin:
        print(calibrate(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
