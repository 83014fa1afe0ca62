"""A fixed computation that gauges how fast the host runs right now.

The host this benchmark runs on drifts in speed by itself, by as much as a
factor 1.6 within minutes, and CPU time drifts with wall time.  Each cold
start times this yardstick right after its set-up, and the set-up time is
scaled by REFERENCE_S over the yardstick's median time, which takes the
host's drift out of ``setup_s``.  The yardstick uses no package code, so a
change to the package does not move it.  Its mix follows the set-up:
interpreted Python, Hermitian eigensolves and small HiGHS linear programs.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# The yardstick's time on this host at the speed the figures are scaled to.
REFERENCE_S = 0.1

_rng = np.random.default_rng(0)


def _hermitian(d):
    g = _rng.normal(size=(d, d)) + 1j * _rng.normal(size=(d, d))
    return g + g.conj().T


_MATS = [_hermitian(d) for d in (4, 16, 64)]
_LARGE = _hermitian(256)
_A = _rng.random((8, 12))
_B = _A @ _rng.dirichlet(np.ones(12))
_C = -_rng.random(12)


def yardstick() -> float:
    """Wall time of one fixed pass of interpreted, BLAS and LP work."""
    start = time.perf_counter()
    np.linalg.eigh(_LARGE)
    for _ in range(16):
        total = 0
        for i in range(20000):
            total += i * i
        for mat in _MATS:
            np.linalg.eigh(mat)
        linprog(_C, A_eq=_A, b_eq=_B, bounds=(0.0, None), method="highs")
    return time.perf_counter() - start
