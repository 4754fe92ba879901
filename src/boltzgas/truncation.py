"""Velocity-space localization of the collision dynamics.

The jump coefficients become globally Lipschitz once the test particle
velocity is projected toward the closed ball of radius ``j``:

    project_j(z, j) = z / (1 + d(z, B_j)),   d(z, B_j) = max(|z| - j, 0).

The projected speed never exceeds ``min(j, |z|)`` (this requires
``j >= 1``), the map is the identity on ``|z| <= j``, and it is globally
Lipschitz.  The localized transfer and cross section are

    alpha_j(z, v, theta, phi) = alpha(project_j(z), v, theta, phi)
    sigma(|project_j(z) - v|),

the latter bounded by ``c (j + |v|)**gamma`` for ``gamma >= 0``
uniformly in ``z``; :func:`boltzgas.engine.jump_intensity` evaluates it
on rows already projected.

Localization breaks exact energy conservation outside the ball; the
defect in the post-collision energy balance is

    |z + alpha_j|^2 - |z|^2 = |v|^2 - |v - alpha_j|^2 + E_j,
    E_j = (2 d / (1 + d)) <z, alpha_j>,

which vanishes on ``|z| <= j``.
"""

from __future__ import annotations

import numpy as np

from .geometry import deflection_alpha

__all__ = ["project_j", "alpha_j", "energy_defect"]


def _checked(j, z):
    """Truncation level(s) and 3-vector input as float64, validated.

    Levels must be finite and ``>= 1``; ``z`` must be finite with 3
    entries on the last axis.
    """
    j = np.asarray(j, dtype=np.float64)
    # one comparison pair rejects NaN, infinities and levels below one
    if not ((j >= 1.0) & (j < np.inf)).all():
        raise ValueError(f"truncation level must be a finite real >= 1, got {j}")
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1:] != (3,) or not np.isfinite(z).all():
        raise ValueError(f"expected finite 3-vectors, got shape {z.shape}")
    return j, z


def project_j(z, j):
    """Project ``z`` toward the ball of radius ``j``.

    Parameters
    ----------
    z : array_like, shape (..., 3)
        Velocity vector(s).
    j : float or array_like
        Truncation level(s), ``>= 1``, broadcasting against the leading
        axes of ``z``: one level for every row or one level per row.

    Returns
    -------
    numpy.ndarray
        ``z / (1 + max(|z| - j, 0))``; bitwise equal to ``z`` on
        ``|z| <= j``, with norm at most ``min(j, |z|)`` otherwise.
    """
    j, z = _checked(j, z)
    d = np.maximum(np.linalg.norm(z, axis=-1) - j, 0.0)[..., np.newaxis]
    return np.where(d > 0.0, z / (1.0 + d), z)


def alpha_j(z, v, theta, phi, j):
    """Localized velocity transfer ``alpha(project_j(z), v, theta, phi)``.

    Equals the untruncated transfer whenever ``|z| <= j``.
    """
    return deflection_alpha(project_j(z, j), v, theta, phi)


def energy_defect(z, v, theta, phi, j):
    """Energy-balance defect ``E_j`` of a localized collision.

    Computed from the closed form ``(2 d / (1 + d)) <z, alpha_j>`` with
    ``d = max(|z| - j, 0)``; exactly zero on ``|z| <= j``.

    Returns
    -------
    float or numpy.ndarray
    """
    j, z = _checked(j, z)
    a = alpha_j(z, v, theta, phi, j)
    d = np.maximum(np.linalg.norm(z, axis=-1) - j, 0.0)
    return (2.0 * d / (1.0 + d)) * np.sum(z * a, axis=-1)
