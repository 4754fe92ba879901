"""Quadrature helpers for collision-operator integrals.

The collision operator against an isotropic Gaussian velocity density
reduces to one-dimensional radial integrals.  Writing ``v = z + w``,
``w = r * what`` and ``mu = (z/|z|) . what``, a centered Maxwellian with
per-component variance ``s`` factors as

    M(z + w; s) = (2 pi s)^(-3/2) exp(-(|z|^2 + r^2)/(2 s)) exp(-a mu),
    a = |z| r / s,

so any integrand that is a polynomial in ``(z . w)`` and ``|w|^2`` times
a power of the relative speed ``|w|`` needs only the sphere moments

    m_p(a) = int_{-1}^{1} mu^p exp(-a mu) dmu

and radial quadrature.  The sphere moments are computed in the scaled
form ``exp(-a) m_p(a)`` so the combined radial integrand carries the
bounded exponent ``-(r - |z|)^2 / (2 s)`` and never overflows.

Primitive provided here:

    T_{p,q}(|z|; s) = int |w|^q ((z/|z|) . what)^p M(z + w; s) dw
                    = 2 pi (2 pi s)^(-3/2)
                      * int_0^inf r^(2+q) e^{-(r-|z|)^2/(2s)}
                                  [e^{-a} m_p(a)] dr.

Everything downstream (jump rates, energy exchange, weak-form
generators) is assembled from ``T_{p,q}``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite_3d",
    "sphere_exp_moments_scaled",
    "radial_gaussian_moment",
]


@lru_cache(maxsize=64)
def _gl_cache(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes and weights on ``[a, b]``."""
    x, w = _gl_cache(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@lru_cache(maxsize=16)
def _gh_cache(n):
    return np.polynomial.hermite.hermgauss(n)


def gauss_hermite_3d(n, variance):
    """Tensor Gauss-Hermite rule for a centered isotropic 3-d Gaussian.

    Returns nodes ``(n^3, 3)`` and weights ``(n^3,)`` such that
    ``sum_k w_k f(x_k)`` approximates ``E[f(V)]`` for
    ``V ~ N(0, variance * I_3)``.  Exact for polynomials of degree
    ``< 2n`` per coordinate.
    """
    x, w = _gh_cache(int(n))
    scale = np.sqrt(2.0 * variance)
    nodes_1d = scale * x
    weights_1d = w / np.sqrt(np.pi)
    gx, gy, gz = np.meshgrid(nodes_1d, nodes_1d, nodes_1d, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    wx, wy, wz = np.meshgrid(weights_1d, weights_1d, weights_1d, indexing="ij")
    weights = (wx * wy * wz).ravel()
    return nodes, weights


def sphere_exp_moments_scaled(a, pmax):
    """Scaled sphere moments ``exp(-a) * m_p(a)`` for ``p = 0..pmax``.

    ``m_p(a) = int_{-1}^1 mu^p exp(-a mu) dmu``.  For small ``a`` the
    downward-stable route is the Taylor series of ``m_p`` itself; for
    larger ``a`` the integration-by-parts recursion on the scaled
    values ``mu_p = ((-1)^p - exp(-2a))/a + (p/a) mu_{p-1}`` is stable.

    Parameters
    ----------
    a : array_like, nonnegative
    pmax : int

    Returns
    -------
    numpy.ndarray, shape (pmax + 1,) + a.shape
    """
    a_ = np.asarray(a, dtype=np.float64)
    out = np.empty((pmax + 1,) + a_.shape)
    small = a_ < 0.5
    if np.any(small):
        asm = a_[small]
        ea = np.exp(-asm)
        # m_p(a) = 2 sum_{k >= 0, p + k even} (-a)^k / (k! (p+k+1)): one
        # series of powers feeds every order of matching parity
        acc = np.zeros((pmax + 1,) + asm.shape)
        term_pow = np.ones_like(asm)
        fact = 1.0
        for k in range(0, 40):
            for p in range(k % 2, pmax + 1, 2):
                acc[p] += term_pow / (fact * (p + k + 1))
            term_pow = term_pow * (-asm)
            fact *= k + 1
            if k > 6 and np.all(np.abs(term_pow) / fact < 1e-18):
                break
        acc *= 2.0
        acc *= ea
        out[:, small] = acc
    big = ~small
    if np.any(big):
        ab = a_[big]
        e2 = np.exp(-2.0 * ab)
        mu_prev = (1.0 - e2) / ab
        out[0][big] = mu_prev
        sign = 1.0
        for p in range(1, pmax + 1):
            sign = -sign
            mu_p = (sign - e2) / ab + (p / ab) * mu_prev
            out[p][big] = mu_p
            mu_prev = mu_p
    return out


def radial_gaussian_moment(z_norm, s, p, q, n_nodes=400, radial_factor=None):
    """Primitive ``T_{p,q}`` by fixed-order radial Gauss-Legendre.

    Computes ``int |w|^q ((z/|z|) . (w/|w|))^p M(z + w; s) dw`` for a
    batch of speeds ``|z|``.  The radial integrand is a Gaussian bump
    centered at ``r = |z|`` of width ``sqrt(s)``; the node window covers
    ``[0, max |z| + 14 sqrt(s)]``, the only way a speed's value depends
    on the other speeds of the call.  Several orders share the nodes, the
    Gaussian factor and one sphere-moment table up to the largest ``p``.

    Parameters
    ----------
    z_norm : array_like
        Speeds ``|z| >= 0``.
    s : float
        Per-component variance of the Maxwellian.
    p : int or sequence of int
        Sphere-moment order (0..6), or one order per result row.
    q : float or sequence of float
        Radial power ``> -3``, or one power per entry of ``p``.
    n_nodes : int
        Gauss-Legendre order.
    radial_factor : callable, optional
        Extra isotropic weight ``F(|w|)`` multiplied into the integrand,
        evaluated on the radial node array.  Position-overlap factors of
        product densities enter through this hook.

    Returns
    -------
    float or numpy.ndarray
        For one order, a float for a scalar speed and an array shaped
        like ``z_norm`` otherwise; for sequences, one such result per
        order stacked along a new first axis.
    """
    zn = np.atleast_1d(np.asarray(z_norm, dtype=np.float64))
    if np.any(zn < 0.0):
        raise ValueError("speeds must be nonnegative")
    orders = np.ndim(p) > 0
    ps, qs = (list(p), list(q)) if orders else ([p], [q])
    if len(ps) != len(qs):
        raise ValueError(f"{len(ps)} sphere orders but {len(qs)} radial powers")
    for qi in qs:
        if qi <= -3.0:
            raise ValueError(f"radial power must exceed -3, got {qi}")
    rmax = float(np.max(zn)) + 14.0 * np.sqrt(s)
    # Fractional q makes r**(2+q) non-analytic at r = 0, which stalls
    # Gauss-Legendre there; the chart r = u^2 doubles the exponent and
    # restores spectral accuracy on the head of the integral.
    r_split = min(float(np.sqrt(s)), rmax / 2.0)
    u, u_wts = gauss_legendre(n_nodes // 2, 0.0, np.sqrt(r_split))
    r_head = u * u
    w_head = 2.0 * u * u_wts
    r_tail, w_tail = gauss_legendre(n_nodes, r_split, rmax)
    r = np.concatenate([r_head, r_tail])
    wts = np.concatenate([w_head, w_tail])
    a = zn[:, np.newaxis] * r[np.newaxis, :] / s
    mom = sphere_exp_moments_scaled(a, max(ps))
    expo = np.exp(-((r[np.newaxis, :] - zn[:, np.newaxis]) ** 2) / (2.0 * s))
    if radial_factor is not None:
        factor = np.asarray(radial_factor(r), dtype=np.float64)
    pref = 2.0 * np.pi * (2.0 * np.pi * s) ** (-1.5)
    out = np.empty((len(ps), len(zn)))
    for row, pi, qi in zip(out, ps, qs):
        vals = r ** (2.0 + qi) * expo * mom[pi]
        if radial_factor is not None:
            vals = vals * factor
        # vecdot rounds each speed's sum alike however many speeds there
        # are; a BLAS matrix-vector product does not
        row[:] = np.vecdot(pref * vals, wts)
    if np.ndim(z_norm) == 0:
        out = out[:, 0]
    if orders:
        return out
    return float(out[0]) if np.ndim(z_norm) == 0 else out[0]

