"""Host-speed calibration for the benchmark's timings.

On the 2-vCPU host the benchmark was written on, the same Python and
numpy code runs up to twice as slow for stretches of seconds to minutes,
whatever runs inside the sandbox. A fixed kernel timed next to the work
tracks that speed: every operation's wall time is multiplied by
``REFERENCE_S / kernel time``, which expresses it in seconds of a host
where the kernel takes ``REFERENCE_S``. The kernel is the benchmark's own
BiGRU on fixed weights; it calls nothing in ctsum, so a change to the
package cannot change it.
"""

from __future__ import annotations

import resource
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference as ref

REFERENCE_S = 0.25e-3  # about the kernel's time on the 2-vCPU reference host
REFRESH_S = 0.05  # re-time the kernel when this much wall time has passed
SAMPLES = 3  # the kernel time is the fastest of this many back-to-back runs


def _kernel_inputs():
    rng = np.random.default_rng(20261017)
    h, d, t = 16, 16, 12
    draw = lambda *shape: rng.uniform(-0.25, 0.25, size=shape)
    direction = lambda: SimpleNamespace(w=draw(3 * h, d), u=draw(3 * h, h), b=draw(3 * h))
    model = SimpleNamespace(layers=[(direction(), direction())], w_out=draw(6, 2 * h), b_out=draw(6))
    return model, draw(t, d)


class HostClock:
    """Converts wall seconds to reference-host seconds."""

    def __init__(self):
        self._model, self._x = _kernel_inputs()
        self.kernel_s = []  # every kernel time taken, for the fingerprint
        self._factor = 1.0
        self._stamp = -np.inf

    def factor(self) -> float:
        now = perf_counter()
        if now - self._stamp >= REFRESH_S:
            best = np.inf
            for _ in range(SAMPLES):
                t0 = perf_counter()
                ref.bigru_probs(self._model, self._x)
                best = min(best, perf_counter() - t0)
            self.kernel_s.append(best)
            self._factor = REFERENCE_S / best
            self._stamp = perf_counter()
        return self._factor

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return (result, wall seconds, reference seconds).
        The factor is the mean of the calibrations just before and after."""
        before = self.factor()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        dt = perf_counter() - t0
        return result, dt, dt * 0.5 * (before + self.factor())

    def cpu_time(self, fn, *args):
        """Like ``time`` but in user CPU seconds, for set-up: the kernel
        time of its file writes swings with the shared file system."""
        before = self.factor()
        t0 = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        result = fn(*args)
        dt = resource.getrusage(resource.RUSAGE_SELF).ru_utime - t0
        return result, dt * 0.5 * (before + self.factor())
