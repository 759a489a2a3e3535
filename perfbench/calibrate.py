"""Time a fixed kernel in a fresh interpreter: ``python -m perfbench.calibrate``.

Prints one JSON list of seconds, one per repeat.  ``run.py`` runs it
between passes and rescales each pass's times by the runs on either
side of it.  It runs in an interpreter of its own, which imports NumPy
and nothing of the program, so its time depends on the machine alone:
nothing a pass leaves behind (heap, allocator state, threads) can slow it.
"""

import json
import time


class _Cell:
    def __init__(self, value: float, weight: int):
        self.value = value
        self.weight = weight


def calibrate(repeats: int = 12) -> list:
    """Seconds of a fixed mix of interpreter and NumPy work, ``repeats`` times.

    The mix mirrors the program's: many small Python objects built and
    dropped, then small NumPy distance kernels.  The benchmark owns this
    code and never changes it, so its time tracks only how fast the
    machine runs at the moment.  One untimed repeat first warms the
    allocator, so page faults of a fresh process are not counted.
    """
    import numpy as np

    points = np.random.default_rng(0).random((256, 42))
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        cells = [_Cell(i * 0.5, i % 7) for i in range(25_000)]
        sum(cell.value * cell.weight for cell in cells)
        del cells
        for _ in range(30):
            ((points[:, None, :] - points[None, :23, :]) ** 2).sum(-1).argmin(1)
        times.append(time.perf_counter() - start)
    return times[1:]


if __name__ == "__main__":
    print(json.dumps(calibrate()))
