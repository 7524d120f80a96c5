"""A fixed CPU probe that tracks the speed of a shared host.

On shared virtual machines the speed of a core swings by up to 1.8x over
seconds to minutes.  Each op runs this probe, in its own process, just
before and just after the CLI command; the end-to-end times are reported
scaled by ``REF_S`` over the mean probe time around the op, so that they
read as times on a host whose probe takes ``REF_S``.
"""

import time

import numpy as np

REF_S = 0.03  # the probe's time on an unloaded 2-vCPU Xeon VM
_DATA = np.linspace(0.0, 1.0, 100_000)


def probe_s():
    """Seconds for a fixed mix of interpreter and numpy work, like the ops do."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(14):
        np.exp(np.sin(_DATA) * 2.0).sum()
    return time.perf_counter() - t0
