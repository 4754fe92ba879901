"""Correctness checks made apart from the program.

Each check returns a :class:`Check`.  References are closed forms the
benchmark computes itself, or properties the method must have; none is
a stored copy of an earlier output.  Statistical checks compare a
sample mean with its reference within ``Z_BAND`` standard errors.  At
five standard errors a correct program fails one check in about 1.7
million, so the at most five statistical checks of a run fail together
less than once in 300 000 runs at any seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_BAND = 5.0
ENVELOPE_SLACK = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def maxwell_relative_speed(vel_var):
    """``E|V - V'|`` for independent ``V, V' ~ N(0, vel_var I)``.

    ``V - V'`` is ``N(0, 2 vel_var I)`` and ``E|N(0, s I)| = sqrt(8 s / pi)``,
    so the mean relative speed is ``4 sqrt(vel_var / pi)``.
    """
    return 4.0 * math.sqrt(vel_var / math.pi)


def power_law_mass(epsilon, nu):
    """``|Q_eps| = int_eps^pi theta^(-1-nu) dtheta = (eps^-nu - pi^-nu) / nu``."""
    return (epsilon**-nu - math.pi**-nu) / nu


def mean_jumps(q_mass, c, horizon, vel_var, side):
    """Mean jump count of a hard-potential path in the stationary box.

    With ``gamma = 1`` the jump rate at velocity ``z`` is
    ``2 pi |Q| c E|z - V| / side^3``.  The tagged velocity stays
    Maxwellian, so the mean count over ``[0, T]`` is
    ``2 pi |Q| c T E|V - V'| / side^3``.
    """
    return (
        2.0 * math.pi * q_mass * c * horizon
        * maxwell_relative_speed(vel_var) / side**3
    )


def mean_band(name, samples, reference, z=Z_BAND):
    """Sample mean within ``z`` standard errors of ``reference``."""
    x = np.asarray(samples, dtype=np.float64)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(len(x)))
    ok = abs(mean - reference) <= z * se
    return Check(
        name, ok,
        f"mean {mean:.6g} vs {reference:.6g} (n={len(x)}, stderr {se:.3g})",
    )


def pooled_residual(name, reports, reference=0.0, z=Z_BAND):
    """Pool ``weak_residual`` reports of several batches into one verdict.

    Batch ``b`` reports the mean residual ``d_b`` of its ``n_b`` paths and
    the standard error ``e_b``.  The pooled mean is
    ``sum n_b d_b / N`` with standard error ``sqrt(sum n_b^2 e_b^2) / N``.
    The verdict is the report's own rule, ``|d| <= k stderr + tolerance``,
    with ``k = z`` in place of 3, so that one run of many batches keeps
    the false-alarm rate of a single check small.
    """
    n = np.array([r.n_samples for r in reports], dtype=np.float64)
    d = np.array([r.difference for r in reports])
    e = np.array([r.stderr for r in reports])
    tol = max(r.tolerance for r in reports)
    total = n.sum()
    mean = float((n * d).sum() / total)
    se = float(math.sqrt((n * n * e * e).sum()) / total)
    ok = abs(mean - reference) <= z * se + tol
    return Check(
        name, ok,
        f"pooled residual {mean:.4g} vs {reference:.4g} (stderr {se:.3g}, "
        f"{int(total)} paths)",
    )


def equal(name, got, expected):
    ok = list(got) == list(expected)
    return Check(name, ok, f"{len(list(got))} values compared")


def bitwise(name, got, expected):
    ok = np.array_equal(np.asarray(got), np.asarray(expected))
    return Check(name, ok, f"shape {np.shape(expected)}")


def relative(name, value, reference, rtol):
    ok = abs(value - reference) <= rtol * abs(reference)
    return Check(name, ok, f"{value!r} vs {reference!r} (rtol {rtol:g})")


def conserved(name, before, after, scale, rtol=1e-9):
    """Conserved quantity unchanged up to roundoff relative to ``scale``."""
    drift = float(np.max(np.abs(np.asarray(after) - np.asarray(before))))
    ok = drift <= rtol * scale
    return Check(name, ok, f"drift {drift:.3g} (scale {scale:.4g})")


def fixed_points(name, passes, caps, converged):
    """Every realization converged within its cap on passes.

    Pass ``k`` decides and kicks atom ``a`` from iterate ``k - 1`` at
    atoms before ``a`` only.  Once the state before atom ``a`` has
    settled, its decision settles one pass later and its azimuth, which
    follows the turn between the last two iterates, one pass after that.
    So the path is final after at most ``2 n_atoms`` passes (iterate
    zero differs from every later one), and ``2 n_atoms + 2`` passes
    always reach the fixed point in exact arithmetic: the caller's cap.
    """
    bad = [
        i for i, (p, c, ok) in enumerate(zip(passes, caps, converged))
        if not ok or p > c
    ]
    return Check(
        name, not bad,
        f"{len(passes)} realizations, max passes {max(passes)}, "
        f"{len(bad)} outside their cap",
    )


def thinning(name, intensities, bounds, thresholds, accepted):
    """Recomputed intensities respect the logged bounds and decisions."""
    lam = np.asarray(intensities)
    bnd = np.asarray(bounds)
    over = int(np.sum(lam > bnd * (1.0 + ENVELOPE_SLACK)))
    flipped = int(np.sum((np.asarray(thresholds) < lam) != np.asarray(accepted)))
    return Check(
        name, over == 0 and flipped == 0,
        f"{len(lam)} candidates, {over} over the bound, {flipped} decisions differ",
    )
