"""Machine-speed probe: puts timings taken at different machine speeds on one scale.

On a shared host the same work can run 1.6 times slower for minutes on end,
because other tenants compete for the cores, caches and memory bandwidth.
Taking a unit's best time over a run does not help when the slow spell
covers the whole run. So the benchmark also times a fixed probe between its
units of work: a mix of interpreter work (dict updates and calls, as in the
buffer replay) and array work on a few megabytes (as in collision counting
and ground truth), single-threaded like the program. A unit's time is then
rescaled to the machine speed at which the probe takes PROBE_REFERENCE_MS:

    scaled_ms = raw_ms * PROBE_REFERENCE_MS / (median probe time around the unit)

The probe is the benchmark's own code and never changes with the program, so
a change that makes the program slower or faster moves the scaled times by
the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REFERENCE_MS = 10.0  # about the probe's time on an idle 2-vCPU x86-64 machine
WINDOW = 4                 # a unit is rescaled by the median of the 2*WINDOW nearest probes

_INTS = np.random.default_rng(0).integers(0, 1 << 20, 1 << 19)        # 4 MB
_POINTS = np.random.default_rng(1).standard_normal((256, 32))


def _bump(counts, key):
    counts[key] = counts.get(key, 0) + 1


def probe_ms() -> float:
    """Time one fixed probe, in ms."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(12_000):
        _bump(counts, (i & 63, i & 1023))
    for start in range(0, len(_INTS), 1 << 16):
        np.bincount(_INTS[start:start + (1 << 16)] & 4095, minlength=4096)
    diff = _POINTS[:, None, :] - _POINTS[None, :64, :]
    np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min(axis=1)
    return (time.perf_counter() - t0) * 1e3


class SpeedGauge:
    """The probe times of one run, in the order they were taken."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> None:
        self.probes.append(probe_ms())

    @property
    def mark(self) -> int:
        """Position of the next probe; a unit timed now sits just before it."""
        return len(self.probes)

    def scale(self, mark: int) -> float:
        """Factor that rescales a time taken at `mark` to the reference speed."""
        lo = max(0, min(mark - WINDOW, len(self.probes) - 2 * WINDOW))
        return PROBE_REFERENCE_MS / statistics.median(self.probes[lo:lo + 2 * WINDOW])
