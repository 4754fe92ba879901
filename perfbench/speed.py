"""Reference computations that track the machine's speed.

The benchmark's machine changes speed by tens of percent within seconds,
and by more over an hour.  The harness times the workload's reference
between rounds, and reports each round's times at the nominal machine
speed under which the reference takes ``REFERENCE_S[kind]`` seconds:

    nominal time = measured time * REFERENCE_S[kind] / median reference time

The references use numpy alone, so a change to the library cannot
change them: every gain or loss of the program stays in the scaled
figures, while most of the machine's drift cancels.  No kind of work
follows the machine's changes exactly, and a Python loop of small numpy
calls swings more than array work does; so the ``"mixed"`` reference
adds such a loop to the ``"array"`` one (see ``README.md``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal seconds of reference_work(kind).
REFERENCE_S = {"mixed": 0.05, "array": 0.035}

_RNG = np.random.default_rng(20230120)
_POS = _RNG.random((160, 3))
_VEL = _RNG.normal(size=(160, 3))
_SPEEDS = np.linalg.norm(_RNG.normal(size=(160, 3)), axis=1)
_NODES = 7.0 * np.linspace(0.0, 1.0, 600) ** 2 + 1e-3
_WEIGHTS = np.full(600, 7.0 / 600)


def reference_work(kind):
    """The library's kinds of work, in numpy alone.

    For ``"mixed"`` only, a Python loop of numpy calls on 3-vectors, like
    the engine's per-candidate step and Picard's per-atom step.  Then, for
    both kinds, pairwise 160 x 160 rate sums and a loop that rebuilds
    single rows and draws a partner from their cumulative sums, like a
    window of the particle ensemble; masked series and recursions, ``exp``
    and a matrix-vector product on a 160 x 600 array, like the empirical
    model's ``speed_moment``.
    """
    start = time.perf_counter()
    acc = 0.0
    v = np.arange(3.0)
    for _ in range(3000 if kind == "mixed" else 0):
        acc += float(np.linalg.norm(np.asarray(v) * 1.5 - v))
    diag = np.arange(len(_POS))
    for _ in range(4):
        disp = _POS[:, np.newaxis] - _POS[np.newaxis]
        disp -= np.round(disp)
        kern = np.exp(-(disp**2).sum(axis=2) / 0.02)
        kern[diag, diag] = 0.0
        gaps = np.linalg.norm(_VEL[:, np.newaxis] - _VEL[np.newaxis], axis=2)
        acc += float((kern * (gaps + 0.5)).sum(axis=1).max())
        for i in range(20):
            d = _POS - _POS[i]
            d -= np.round(d)
            row = np.exp(-(d**2).sum(axis=1) / 0.02) * (
                np.linalg.norm(_VEL - _VEL[i], axis=1) + 0.5
            )
            j = int(np.searchsorted(np.cumsum(row), 0.5 * row.sum()))
            acc += float(np.linalg.norm(_VEL[j] - _VEL[i]))
    for _ in range(8):
        a = _SPEEDS[:, np.newaxis] * _NODES[np.newaxis] / 0.3
        small = a < 0.5
        series = np.zeros(int(small.sum()))
        term = np.ones_like(series)
        for k in range(12):
            series += term / (k + 1)
            term = term * -a[small]
        big = a[~small]
        e2 = np.exp(-2.0 * big)
        mom = np.empty_like(a)
        mom[small] = series
        mom[~small] = (-1.0 - e2) / big + (1.0 - e2) / big**2
        expo = np.exp(-((_NODES[np.newaxis] - _SPEEDS[:, np.newaxis]) ** 2) / 0.6)
        acc += float(((_NODES**2.0 * expo * mom) @ _WEIGHTS).mean())
    return time.perf_counter() - start


def sample(kind, reps):
    """Time :func:`reference_work` of ``kind`` ``reps`` times."""
    return [reference_work(kind) for _ in range(reps)]


def slowness(kind, times):
    """Median reference time over its nominal time."""
    return statistics.median(times) / REFERENCE_S[kind]
