"""Speed probe: how fast the benchmark's CPU runs, sampled all through a run.

On a small shared virtual machine the speed of one virtual CPU changes by up
to 1.8x over seconds to minutes, with nothing else running in the guest, as
the host moves it between cores or its neighbours load them.  A stage's CPU
time moves with it, so runs of the same code minutes apart disagree by more
than any useful bound.

The probe measures that speed where the stages run.  With the benchmark
pinned to one CPU, a thread of the runner wakes every ``INTERVAL_S`` seconds
and times three fixed pieces of work, each by its own CPU time:

* ``text``: Python formatting floats as text, as the matrix writers do;
* ``matmul``: two 128 x 128 matrix products, as the transform and kernels do;
* ``faults``: page faults on 64 fresh pages, as numpy's large temporaries
  and interpreter start-up cause.

A slower host does not slow the three alike, so each workload is rescaled by
the parts that match its work.  A stage's CPU time times the parts' summed
``REF_S`` over their summed mean time across the stage is its CPU time at
the reference speed, in reference seconds.
"""

from __future__ import annotations

import mmap
import statistics
import threading
import time

PARTS = ("text", "matmul", "faults")
# Each part's CPU time at the reference speed, close to its median on a
# 2-vCPU Xeon virtual machine, so reference seconds read near CPU seconds
# there.
REF_S = {"text": 0.25e-3, "matmul": 0.35e-3, "faults": 0.35e-3}
INTERVAL_S = 0.1
# Probes this far outside a stage also count towards it, so that a stage
# shorter than the interval still has several.
PAD_S = 0.5

_FLOATS = [((i * 7919) % 10007) / 10007.0 + i for i in range(256)]
_PAGES = 64


def _text() -> int:
    return sum(len(repr(x)) for x in _FLOATS)


def _faults() -> int:
    with mmap.mmap(-1, _PAGES * mmap.PAGESIZE) as fresh:
        for page in range(_PAGES):
            fresh[page * mmap.PAGESIZE] = 1
    return _PAGES


class SpeedProbe:
    """Samples the CPU's speed from a background thread while it is running.

    Use as a context manager around the stages; ``rescale`` then converts a
    stage's CPU time to reference seconds.  Timestamps use ``time.monotonic``,
    the clock the stages' start and end are taken with.
    """

    def __init__(self):
        self.samples = []  # (midpoint, {part: CPU time})
        self._stop = threading.Event()
        self._thread = None

    def _run(self) -> None:
        import numpy as np  # here, so that BLAS reads its thread count set by the runner

        matrix = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
        work = {"text": _text, "matmul": lambda: (matrix @ matrix, matrix @ matrix),
                "faults": _faults}
        while not self._stop.wait(INTERVAL_S):
            start, times = time.monotonic(), {}
            for part in PARTS:
                cpu = time.thread_time()
                work[part]()
                times[part] = time.thread_time() - cpu
            self.samples.append(((start + time.monotonic()) / 2, times))

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def probe_s(self, start: float, end: float, parts=PARTS) -> float:
        """Mean summed CPU time of ``parts`` over [start - PAD_S, end + PAD_S]."""
        window = [sum(times[p] for p in parts) for mid, times in list(self.samples)
                  if start - PAD_S <= mid <= end + PAD_S]
        if not window:
            raise ValueError(f"no speed probe between {start:.3f} and {end:.3f}")
        return statistics.fmean(window)

    def rescale(self, cpu: float, start: float, end: float, parts=PARTS) -> float:
        """CPU seconds spent in [start, end], converted to reference seconds."""
        return cpu * sum(REF_S[p] for p in parts) / self.probe_s(start, end, parts)
