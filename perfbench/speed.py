"""Machine-speed reference for the reported times.

On the 2-core x86-64 machine where REF_UNIT_S was measured, which shares
its cores with other tenants, identical work takes up to 1.8 times longer
depending on the moment, and the swings last seconds.  So every reported
end-to-end time is scaled by the machine's speed measured next to it: ``unit_s()`` times a
fixed piece of work (best of three) and a time ``t`` is reported as
``t * REF_UNIT_S / unit_s()``.  The unit mixes mpmath arithmetic and
complex doubles, the two kinds of work the library's evaluators do; of the
units tried it tracked the drift of a mid-band K evaluation best (chunk
to chunk variation 2% against 17% raw).  On a quiet machine of the
reference speed scaled and raw times agree; raw times are printed beside
them.  mpmath is imported on first use, so the set-up probe calls this
only after ``import coulombw``.
"""

import cmath
import time

# best-of-three unit time in a quiet period of the reference machine
# (2-core x86-64 machine shared with other tenants, Python 3.11.7, mpmath 1.3.0)
REF_UNIT_S = 7.4e-4


def _unit():
    import mpmath as mp
    with mp.workdps(50):
        a, s = mp.mpc(1.1, 0.3), mp.mpc(0)
        for i in range(60):
            a = a * mp.mpf(1.0001) + 1
            s += a / (i + 1)
    z, t = 0.3 + 0.2j, 0j
    for i in range(600):
        z = z * (0.999 + 0.001j) + 0.001
        t += cmath.exp(z) / (i + 1)
    return s, t


def unit_s() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - t0)
    return best


def scale() -> float:
    """Factor that turns a raw time measured now into reference-speed time."""
    return REF_UNIT_S / unit_s()
