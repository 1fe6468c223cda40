"""Machine-speed calibration for a shared, drifting host.

On a shared 2-vCPU virtual machine, neighbouring load slows everything
in a process by up to 1.7x for seconds to minutes at a time, so raw
wall times of identical work spread by 10-27 % (IQR over median, five
runs).
:class:`Speedometer` runs a fixed kernel from a ``SIGALRM`` handler
every :data:`PERIOD` seconds while the benchmark runs and records how
long each run of it took.  Dividing an interval's wall time by the
kernel's slowdown over that interval (relative to :data:`REF_S`, its
duration on a quiet host) gives the interval in quiet-host seconds,
which cancels most of the drift.

The kernel is a small RK45 integration: of the kernels tried (a pure
Python loop, NumPy on small and on L2-sized arrays, a scipy ODE) it
tracked the slowdown of both the boundary-layer figures and the NS
march best.  It is the benchmark's own code on the installed scipy, so
a change to the program cannot move it.  Interval timers are not
inherited across ``fork``, so sandboxed children run unsampled; while
one computes, the parent keeps sampling beside it on the other vCPU.
That tracks the child less well than the kernel tracks in-process work
(service-mix ``wall_s`` spreads 6-9 % over ten runs against 1-3 % for
the figure workloads), and pausing the sampler during sandboxed
requests did no better.  Stop the timer before ``exec``-ing a child,
which would inherit it with ``SIGALRM`` reset to terminate.
"""

from __future__ import annotations

import signal
import time

from scipy.integrate import solve_ivp

PERIOD = 0.05
#: Kernel duration on a quiet host; fixes the unit of corrected times.
REF_S = 1.4e-3


def _oscillator(t, y):
    return [y[1], -y[0]]


def kernel() -> None:
    solve_ivp(_oscillator, (0.0, 3.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)


class Speedometer:
    """Periodic calibration samples ``(start, duration)`` of the kernel.

    ``kernel`` lets the traced pass wrap the kernel in its own span, so
    that its time is not charged to the program span it interrupts.
    """

    def __init__(self, kernel=kernel):
        self._kernel = kernel
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        kernel()                   # first call pays scipy's lazy set-up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Kernel slowdown over ``[t0, t1)``, over every sample when the
        interval holds none.  Samples are evenly spaced in wall time, so
        the work done in the interval is its length times the mean speed
        ``REF_S / duration``; the slowdown is the inverse of that mean."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        durations = inside or [d for _, d in self.samples]
        return len(durations) / sum(REF_S / d for d in durations)
