"""Collision kernels: relative-speed cross sections and angular measures.

A kernel couples a power-law cross section ``sigma(r) = c * r**gamma``
with an angular measure ``Q(dtheta)`` on ``(0, pi]``.  Two angular
families are provided:

* ``hard_sphere``: ``Q(dtheta) = sin(theta/2) cos(theta/2) dtheta``,
  total mass 1 over the full angle range.
* ``power_law``: ``Q(dtheta) = theta**(-1-nu) dtheta`` with
  ``nu in (0, 1)``; the mass near ``theta = 0`` diverges, so simulation
  requires a cutoff ``epsilon > 0``, while the first moment
  ``int theta Q(dtheta)`` stays finite (grazing collisions are summable).

``epsilon`` restricts the measure to ``[epsilon, pi]`` and is part of
the kernel specification because every sampled or integrated quantity
downstream refers to the cutoff measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HARD_SPHERE",
    "POWER_LAW",
    "KernelSpec",
    "sigma",
    "sigma_weight",
    "angular_mass",
    "sample_theta",
    "angular_weighted_mass",
]

HARD_SPHERE = "hard_sphere"
POWER_LAW = "power_law"

_DEFAULT_POWER_LAW_EPSILON = 1e-3


@dataclass(frozen=True)
class KernelSpec:
    """Validated collision kernel parameters.

    Parameters
    ----------
    gamma : float
        Cross-section exponent in ``(-1, 1]``.  ``gamma = 1`` is the
        hard-sphere scaling, ``gamma = 0`` the Maxwell (speed
        independent) scaling.
    c : float
        Cross-section prefactor, positive and finite.
    angular : str
        ``"hard_sphere"`` or ``"power_law"``.
    nu : float, optional
        Grazing-singularity exponent in ``(0, 1)``; required for the
        power-law family and rejected otherwise.
    epsilon : float, optional
        Angular cutoff in ``[0, pi)``.  Defaults to 0 for hard sphere
        and to 1e-3 for power law, whose total mass is infinite without
        a cutoff.
    """

    gamma: float
    c: float
    angular: str
    nu: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if not (-1.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (-1, 1], got {self.gamma}")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.angular not in (HARD_SPHERE, POWER_LAW):
            raise ValueError(f"unknown angular family {self.angular!r}")
        if self.angular == POWER_LAW:
            if self.nu is None or not (0.0 < self.nu < 1.0):
                raise ValueError(
                    f"power_law requires nu in (0, 1), got {self.nu}"
                )
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the power_law family")
        if self.epsilon is None:
            eps = _DEFAULT_POWER_LAW_EPSILON if self.angular == POWER_LAW else 0.0
            object.__setattr__(self, "epsilon", eps)
        if not (0.0 <= self.epsilon < np.pi):
            raise ValueError(
                f"epsilon must lie in [0, pi), got {self.epsilon}"
            )
        if self.angular == POWER_LAW and self.epsilon == 0.0:
            raise ValueError("power_law has infinite mass without a cutoff")


def sigma(spec, r):
    """Cross section ``c * r**gamma`` of the relative speed ``r``.

    For ``gamma < 0`` the value diverges as ``r -> 0``; that limit is
    returned as ``inf`` and callers must reject it.  Negative ``r`` is
    invalid input.

    Parameters
    ----------
    spec : KernelSpec
    r : float or array_like
        Relative speed(s), nonnegative.

    Returns
    -------
    float or numpy.ndarray
    """
    r_ = np.asarray(r, dtype=np.float64)
    if np.any(r_ < 0.0):
        raise ValueError("relative speed must be nonnegative")
    if spec.gamma == 0.0:
        out = np.full_like(r_, spec.c)
    elif spec.gamma > 0.0:
        out = spec.c * r_**spec.gamma
    else:
        with np.errstate(divide="ignore"):
            out = spec.c * r_**spec.gamma
    if np.isscalar(r) or r_.ndim == 0:
        return float(out)
    return out


def sigma_weight(spec, speed):
    """Weight ``W`` with ``sigma(r) <= c W(speed)`` for every ``r <= speed``.

    ``W = 1`` for ``gamma = 0``, ``W = speed`` for ``gamma = 1`` and
    ``W = 1 + speed`` in between, since ``r**gamma <= 1 + r``.  Soft
    potentials admit no such weight and raise.
    """
    if spec.gamma == 0.0:
        return 1.0
    if spec.gamma == 1.0:
        return speed
    if spec.gamma > 0.0:
        return 1.0 + speed
    raise ValueError("soft potentials admit no cross-section weight")


def _hard_sphere_mass(eps):
    # int_eps^pi sin(t/2) cos(t/2) dt = cos^2(eps/2) = (1 + cos(eps)) / 2
    return 0.5 * (1.0 + np.cos(eps))


def _power_law_mass(eps, nu):
    return (eps ** (-nu) - np.pi ** (-nu)) / nu


def angular_mass(spec):
    """Total mass of the angular measure on ``[spec.epsilon, pi]``.

    ``KernelSpec`` guarantees a power-law cutoff ``epsilon > 0``, so the
    mass is finite.

    Parameters
    ----------
    spec : KernelSpec

    Returns
    -------
    float
    """
    if spec.angular == HARD_SPHERE:
        return float(_hard_sphere_mass(spec.epsilon))
    return float(_power_law_mass(spec.epsilon, spec.nu))


def sample_theta(spec, u):
    """Inverse-CDF sample of the polar angle from ``Q`` on ``[eps, pi]``.

    ``eps = spec.epsilon``.  ``u = 0`` maps to the cutoff and ``u -> 1``
    to ``pi``.  For the hard-sphere family with ``eps = 0`` the closed
    form is ``theta = 2 asin(sqrt(u))``.

    Parameters
    ----------
    spec : KernelSpec
    u : float or array_like
        Uniform variates in ``[0, 1)``; NaN is rejected.

    Returns
    -------
    float or numpy.ndarray
        Angles in ``[eps, pi]``.
    """
    eps = spec.epsilon
    u_ = np.asarray(u, dtype=np.float64)
    if np.any(~((u_ >= 0.0) & (u_ < 1.0))):
        raise ValueError("u must lie in [0, 1)")
    if spec.angular == HARD_SPHERE:
        # CDF(t) = (sin^2(t/2) - sin^2(eps/2)) / (1 - sin^2(eps/2))
        s0 = np.sin(0.5 * eps) ** 2
        out = 2.0 * np.arcsin(np.sqrt(s0 + u_ * (1.0 - s0)))
    else:
        nu = spec.nu
        a = eps ** (-nu)
        b = np.pi ** (-nu)
        out = (a - u_ * (a - b)) ** (-1.0 / nu)
    if np.isscalar(u) or u_.ndim == 0:
        return float(out)
    return out


def _power_law_cos_mass(eps, nu, a):
    """``int_[eps, pi] (1 - cos(a theta)) theta**(-1-nu) dtheta``, ``a <= 2``.

    The cosine series integrated term by term, ``sum_{k >= 1} (-1)^(k+1)
    a^(2k) / (2k)! (pi^(2k-nu) - eps^(2k-nu)) / (2k - nu)``; by ``k = 30``
    its terms are below 1e-30 of the largest.
    """
    k2 = 2.0 * np.arange(1, 31)
    # (-1)^k (a pi)^(2k) / (2k)!
    coef = np.cumprod(-((a * np.pi) ** 2) / ((k2 - 1.0) * k2))
    log_ratio = np.log(eps / np.pi) if eps > 0.0 else -np.inf
    # 1 - (eps/pi)^(2k-nu), accurate also for eps near pi
    gap = -np.expm1((k2 - nu) * log_ratio)
    return float(-(np.pi**-nu) * np.sum(coef * gap / (k2 - nu)))


def angular_weighted_mass(spec, weight, epsilon=None):
    """Moments ``int_[eps, pi] weight(theta) Q(dtheta)`` used downstream.

    ``weight`` is ``"sin2_half"`` (``sin^2(theta/2)``) or ``"sin4_half"``
    (``sin^4(theta/2)``).  Both are closed-form for hard sphere.  For
    power law they are ``(1 - cos theta) / 2`` and
    ``[4 (1 - cos theta) - (1 - cos 2 theta)] / 8``, whose moments are
    cosine series integrated term by term.

    Returns
    -------
    float
    """
    eps = spec.epsilon if epsilon is None else float(epsilon)
    if weight not in ("sin2_half", "sin4_half"):
        raise ValueError(f"unknown weight {weight!r}")
    if spec.angular == HARD_SPHERE:
        # With x = sin^2(theta/2), Q pushes forward to dx on [x0, 1],
        # x0 = sin^2(eps/2), so moments of x**k are (1 - x0**(k+1))/(k+1).
        x0 = np.sin(0.5 * eps) ** 2
        if weight == "sin2_half":
            return float(0.5 * (1.0 - x0**2))
        return float((1.0 - x0**3) / 3.0)
    one = _power_law_cos_mass(eps, spec.nu, 1.0)
    if weight == "sin2_half":
        return 0.5 * one
    return (4.0 * one - _power_law_cos_mass(eps, spec.nu, 2.0)) / 8.0
