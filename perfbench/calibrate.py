"""How fast the host runs right now, from a fixed reference computation.

On a shared machine the same semispec call takes 15-30% longer for
minutes at a time, with CPU time rising along with wall time.  The
benchmark therefore times this fixed loop next to every pass and reports
pass time scaled to a host on which one step takes ``STEP_REF_S``.

The loop mirrors semispec's hot paths without calling them, so that
changes to semispec never change the yardstick.  A step applies one 2x2
complex rotation to two rows and two columns of a 256 x 256 matrix (the
in-house QR's access pattern and cache footprint at dimension 265) and
evaluates ufuncs on a 256-element complex vector (the level-set Newton
over quadrature nodes).  A smaller, cache-resident matrix tracked the QR
slowdowns only half as well.
"""

import time

import numpy as np

STEP_REF_S = 3.0e-5  # about one step on the 2-CPU sandbox, 1 BLAS thread
_DIM = 256
_CHUNK = 50


def step_seconds(min_seconds):
    """Mean seconds per step, over chunks run for at least ``min_seconds``."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal((_DIM, _DIM)) \
        + 1j * rng.standard_normal((_DIM, _DIM))
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    steps = 0
    t0 = time.perf_counter()
    while True:
        for i in range(_CHUNK):
            k = i % (_DIM - 2)
            a, b = h[k, k], h[k + 1, k]
            r = np.hypot(abs(a), abs(b))
            c, s = a / r, b / r
            g = np.array([[c.conjugate(), s.conjugate()], [-s, c]])
            h[k:k + 2, :] = g @ h[k:k + 2, :]
            h[:, k:k + 2] = h[:, k:k + 2] @ g.conj().T
            w = v * v.conj() + 1.0 / (v + 3.0)
            np.abs(w).max()
        steps += _CHUNK
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / steps
