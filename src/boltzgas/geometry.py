"""Elastic collision kinematics in three dimensions.

A binary collision between a test particle with velocity ``z`` and a
partner with velocity ``v`` is parametrized by a polar angle ``theta``
and an azimuth ``phi``.  The velocity transfer is

    alpha(z, v, theta, phi) = sin^2(theta/2) * (v - z)
                              + (sin(theta) / 2) * Gamma(v - z, phi)

where ``Gamma(w, phi) = I(w) cos(phi) + J(w) sin(phi)`` and
``(w, I(w), J(w))`` is an orthogonal triple with ``|I| = |J| = |w|``.
Post-collision velocities are ``z + alpha`` and ``v - alpha``; momentum
and kinetic energy are conserved exactly and the relative speed
``|v - z|`` is invariant.

Shape rule: every function takes 3-vectors on the last axis and computes
in float64.  Leading axes of the vector inputs and the angle arrays
broadcast as numpy broadcasts them: a single ``(3,)`` vector gives a
``(3,)`` result, ``(n, 3)`` rows pair with ``(n,)`` angles, and a single
``z`` meets a batch of ``v`` row by row.  Any other last axis, or a
non-finite vector entry, raises ``ValueError``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Frame",
    "orthonormal_frame",
    "gamma",
    "deflection_alpha",
    "post_collision",
    "tanaka_rotation",
    "row_norms",
]


class Frame(NamedTuple):
    """Orthogonal triple attached to a relative velocity ``w``.

    ``i_axis`` and ``j_axis`` are orthogonal to ``w`` and to each other,
    both with norm ``|w|``, and ``(w/|w|, i_axis/|w|, j_axis/|w|)`` is
    right-handed.  For ``w = 0`` both axes are zero vectors.
    """

    i_axis: np.ndarray
    j_axis: np.ndarray


def _vectors(name, a):
    """``a`` as float64 3-vectors, rejecting another last axis or a non-finite entry."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (3,):
        raise ValueError(f"{name}: expected 3-vectors on the last axis, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_norms(vectors):
    """Lengths of 3-vector rows, each bit-equal to ``np.linalg.norm(row)``.

    ``np.linalg.norm`` of a single vector takes a BLAS dot product, whose
    rounding differs from a last-axis sum of squares; ``np.vecdot`` calls
    the same dot per row.  Unlike the rest of this module it checks
    nothing: its callers pass rows they have validated or built.
    """
    return np.sqrt(np.vecdot(vectors, vectors))


# The coordinate axes as rows, and the component orders of a cross product.
_AXES = np.eye(3)
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """``a x b`` on the last axis, by the float operations of ``np.cross``."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _norms(a):
    """``np.linalg.norm(a, axis=-1)`` by its float operations, without its dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def orthonormal_frame(w):
    """Deterministic orthogonal frame attached to ``w``.

    The convention is frozen so that downstream event logs are
    reproducible: pick the coordinate axis ``e_k`` with the smallest
    ``|w_k|`` (smallest index on ties), set ``I = (w x e_k)`` rescaled
    to norm ``|w|``, and ``J = (w/|w|) x I``.

    Parameters
    ----------
    w : array_like, shape (..., 3)
        Relative velocity vector(s).

    Returns
    -------
    Frame
        ``i_axis`` and ``j_axis`` with the same shape as ``w``.  Both
        are zero for ``w = 0``.

    Raises
    ------
    ValueError
        If ``w`` contains NaN or infinity.
    """
    return _frame(_vectors("w", w))


def _frame(w):
    """:func:`orthonormal_frame` of float64 3-vectors already validated."""
    norm = _norms(w)
    nonzero = norm > 0.0
    # Axis of smallest |component|, ties resolved toward the smaller index.
    i_raw = _cross(w, _AXES[np.argmin(np.abs(w), axis=-1)])
    scale = np.divide(norm, _norms(i_raw), out=np.zeros_like(norm), where=nonzero)
    i_axis = i_raw * scale[..., np.newaxis]
    w_hat = np.divide(
        w, norm[..., np.newaxis], out=np.zeros_like(w), where=nonzero[..., np.newaxis]
    )
    return Frame(i_axis, _cross(w_hat, i_axis))


def gamma(w, phi):
    """Azimuthal component ``Gamma(w, phi) = I(w) cos(phi) + J(w) sin(phi)``.

    ``Gamma`` is orthogonal to ``w`` with ``|Gamma| = |w|``, and its
    average over a full turn of ``phi`` vanishes.

    Parameters
    ----------
    w : array_like, shape (..., 3)
        Relative velocity vector(s).
    phi : float or array_like
        Azimuth in radians, broadcasting against the leading axes of ``w``.

    Returns
    -------
    numpy.ndarray
        Shape ``broadcast(w.shape[:-1], phi.shape) + (3,)``.
    """
    return _azimuthal(orthonormal_frame(w), phi)


def _azimuthal(frame, phi):
    """``I cos(phi) + J sin(phi)`` of a frame."""
    phi = np.asarray(phi, dtype=np.float64)[..., np.newaxis]
    return frame.i_axis * np.cos(phi) + frame.j_axis * np.sin(phi)


def deflection_alpha(z, v, theta, phi):
    """Velocity transfer of a binary elastic collision.

    Computes ``sin^2(theta/2) (v - z) + (sin(theta)/2) Gamma(v - z, phi)``.
    The transfer has norm ``|v - z| sin(theta/2)`` and satisfies
    ``|alpha| <= 2 theta (|z| + |v|)``.

    Parameters
    ----------
    z, v : array_like, shape (..., 3)
        Test and partner velocities.
    theta : float or array_like
        Polar angle in (0, pi].
    phi : float or array_like
        Azimuth in [0, 2*pi).

    Returns
    -------
    numpy.ndarray
        The transfer ``alpha``, shape matching the broadcast inputs.
    """
    z = _vectors("z", z)
    w = _vectors("v", v) - z
    theta = np.asarray(theta, dtype=np.float64)[..., np.newaxis]
    return np.sin(0.5 * theta) ** 2 * w + 0.5 * np.sin(theta) * _azimuthal(
        _frame(w), phi
    )


def post_collision(z, v, theta, phi):
    """Post-collision velocity pair ``(z + alpha, v - alpha)``.

    Returns
    -------
    tuple of numpy.ndarray
        ``(z_star, v_star)``.  Momentum ``z + v`` and energy
        ``|z|^2 + |v|^2`` are conserved exactly up to roundoff.
    """
    alpha = deflection_alpha(z, v, theta, phi)
    z = np.asarray(z, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return z + alpha, v - alpha


def tanaka_rotation(z, v, z2, v2):
    """Azimuth offset aligning the frames of two relative velocities.

    Returns ``phi0`` in ``[0, 2*pi)`` such that for every ``phi``

        |Gamma(v - z, phi) - Gamma(v2 - z2, phi + phi0)|
            <= 3 |(v - z) - (v2 - z2)|.

    The construction rotates the frame of ``w = v - z`` onto the frame of
    ``w2 = v2 - z2`` by the minimal rotation taking ``a = w/|w|`` to
    ``b = w2/|w2|`` and reads off the in-plane angle between the
    transported ``I`` axis and the canonical frame of ``w2``.  On the unit
    axis ``i`` of ``w`` that rotation is the closed form
    ``i - (i.b) / (1 + a.b) (a + b)``; an exactly antiparallel pair takes
    the half turn about ``i``, which leaves ``i`` in place.

    Degenerate inputs (either relative velocity zero) return ``0.0``.

    Parameters
    ----------
    z, v : array_like, shape (..., 3)
        First velocity pair.
    z2, v2 : array_like, shape (..., 3)
        Second velocity pair.

    Returns
    -------
    float or numpy.ndarray
        Offset angle(s) in ``[0, 2*pi)``: a float for single vectors,
        else an array of the broadcast leading shape.
    """
    z = _vectors("z", z)
    w = _vectors("v", v) - z
    z2 = _vectors("z2", z2)
    w, w2 = np.broadcast_arrays(w, _vectors("v2", v2) - z2)
    n1 = np.linalg.norm(w, axis=-1, keepdims=True)
    n2 = np.linalg.norm(w2, axis=-1, keepdims=True)
    ok = ((n1 > 0.0) & (n2 > 0.0))[..., 0]

    phi0 = np.zeros(ok.shape)
    if np.any(ok):
        w, w2, n1, n2 = w[ok], w2[ok], n1[ok], n2[ok]
        frame_b = _frame(w2)
        a, b = w / n1, w2 / n2
        ia = _frame(w).i_axis / n1
        ib = frame_b.i_axis / n2
        jb = frame_b.j_axis / n2
        # 1 + c cancels near c = -1, where |a x b|^2 / (1 - c) keeps its
        # digits; the divisor 1 - c = 1 + |c| there is never below one
        c = np.sum(a * b, axis=-1)
        cross_sq = np.sum(_cross(a, b) ** 2, axis=-1)
        one_plus_c = np.where(c > 0.0, 1.0 + c, cross_sq / (1.0 + np.abs(c)))
        # 1 + c is zero only for an exactly antiparallel pair, which keeps ia
        shift = np.divide(
            np.sum(ia * b, axis=-1), one_plus_c,
            out=np.zeros_like(c), where=one_plus_c > 0.0,
        )
        ia_rot = ia - shift[:, np.newaxis] * (a + b)
        ang = np.arctan2(np.sum(ia_rot * jb, axis=-1), np.sum(ia_rot * ib, axis=-1))
        wrapped = np.mod(ang, 2.0 * np.pi)
        # a negative angle within rounding of zero folds to 2*pi itself,
        # which sits outside the half-open range contract
        wrapped[wrapped >= 2.0 * np.pi] = 0.0
        phi0[ok] = wrapped
    return phi0 if phi0.ndim else float(phi0)
