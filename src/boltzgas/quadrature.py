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
generators) is assembled from ``T_{p,q}``.  Its radial resolution is
fixed here, and ``pair_blocks`` bounds the memory of this and every
other row-by-column computation of the package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite_3d",
    "sphere_exp_moments_scaled",
    "radial_gaussian_moment",
    "pair_blocks",
]

# Pairs held in memory at once by every row-by-column computation: one
# (3, rows, centres) float64 block of displacement planes is under 50 MB.
_PAIR_BUDGET = 2_000_000

# Gauss-Legendre nodes of each speed's radial tail window and of the head
# window all speeds share: exact to rounding at any speed, as both follow
# the Gaussian bump.
_TAIL_NODES = 64
_HEAD_NODES = 32


def pair_blocks(n_rows, n_cols):
    """Row slices of an ``n_rows`` by ``n_cols`` pair computation.

    Each slice covers as many rows as fit in a fixed budget of pairs (at
    least one), so peak memory does not grow with the query size.
    """
    step = max(1, _PAIR_BUDGET // max(n_cols, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


@lru_cache(maxsize=64)
def _gl_cache(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes and weights on ``[a, b]``.

    With columns ``a`` and ``b`` of several intervals, one row of nodes
    and weights per interval.
    """
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
        neg = -asm
        fact = 1.0
        # a fixed number of terms, so that no entry's value depends on
        # the others: below a = 0.5 the first term left out, k = 17, is
        # under 0.5^17 / 17! < 1e-19
        for k in range(17):
            for p in range(k % 2, pmax + 1, 2):
                acc[p] += term_pow / (fact * (p + k + 1))
            term_pow *= neg
            fact *= k + 1
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


def radial_gaussian_moment(z_norm, s, p, q, radial_factor=None):
    """Primitive ``T_{p,q}`` by fixed-order radial Gauss-Legendre.

    Computes ``int |w|^q ((z/|z|) . (w/|w|))^p M(z + w; s) dw`` for a
    batch of speeds ``|z|``.  The radial integrand is a Gaussian bump
    centered at ``r = |z|`` of width ``sqrt(s)``.  Every speed has its
    own node window: a head ``[0, sqrt(s)]`` shared by all speeds and a
    tail ``[max(sqrt(s), |z| - 14 sqrt(s)), |z| + 14 sqrt(s)]``, at most
    ``29 sqrt(s)`` wide whatever ``|z|`` is, so one fixed node count
    serves every speed.  A speed's value therefore depends on its own
    speed only, never on the other speeds of the call, and the speeds
    are taken in row blocks under the pair budget of
    :func:`pair_blocks`.  Several orders share the nodes, the Gaussian
    factor and one sphere-moment table up to the largest ``p``.

    Parameters
    ----------
    z_norm : array_like
        Finite speeds ``|z| >= 0``.
    s : float
        Per-component variance ``> 0`` of the Maxwellian.
    p : int or sequence of int
        Sphere-moment order (0..6), or one order per result row.
    q : float or sequence of float
        Radial power ``> -3``, or one power per entry of ``p``.
    radial_factor : callable, optional
        Extra isotropic weight ``F(|w|)`` multiplied into the integrand,
        evaluated on the ``(speeds, nodes)`` array of a block of speeds'
        radial nodes.  Position-overlap factors of product densities
        enter through this hook.  The windows follow the Gaussian bump,
        so with ``|F| <= 1`` what lies outside them is under ``e^-98`` of
        the unweighted integral.

    Returns
    -------
    float or numpy.ndarray
        For one order, a float for a scalar speed and an array shaped
        like ``z_norm`` otherwise; for sequences, one such result per
        order stacked along a new first axis.
    """
    zn = np.atleast_1d(np.asarray(z_norm, dtype=np.float64))
    # negated comparisons, so that NaN fails them too
    if not np.all((zn >= 0.0) & (zn < np.inf)):
        raise ValueError("speeds must be nonnegative and finite")
    if not 0.0 < s < np.inf:
        raise ValueError(f"variance must be positive and finite, got {s}")
    orders = np.ndim(p) > 0
    ps, qs = (list(p), list(q)) if orders else ([p], [q])
    if len(ps) != len(qs):
        raise ValueError(f"{len(ps)} sphere orders but {len(qs)} radial powers")
    for qi in qs:
        if not qi > -3.0:
            raise ValueError(f"radial power must exceed -3, got {qi}")
    root = np.sqrt(s)
    # Fractional q makes r**(2+q) non-analytic at r = 0, which stalls
    # Gauss-Legendre there; the chart r = u^2 doubles the exponent and
    # restores spectral accuracy on the head of the integral.
    u, u_wts = gauss_legendre(_HEAD_NODES, 0.0, np.sqrt(root))
    head_r, head_w = u * u, 2.0 * u * u_wts
    out = np.empty((len(ps), len(zn)))
    for rows in pair_blocks(len(zn), _HEAD_NODES + _TAIL_NODES):
        # Outside a speed's window the bump is under e^-98 of its peak.
        zc = zn[rows, np.newaxis]
        r_tail, w_tail = gauss_legendre(
            _TAIL_NODES, np.maximum(root, zc - 14.0 * root), zc + 14.0 * root
        )
        shape = (len(zc), _HEAD_NODES)
        r = np.concatenate([np.broadcast_to(head_r, shape), r_tail], axis=1)
        wts = np.concatenate([np.broadcast_to(head_w, shape), w_tail], axis=1)
        mom = sphere_exp_moments_scaled(r * (zc / s), max(ps))
        # the weights carry every factor that no order changes
        gauss = r - zc
        gauss *= gauss
        gauss *= -0.5 / s
        wts *= np.exp(gauss, out=gauss)
        if radial_factor is not None:
            wts *= radial_factor(r)
        # one power per distinct q, held one at a time
        for qi in dict.fromkeys(qs):
            power = r ** (2.0 + qi)
            for row in (k for k, q in enumerate(qs) if q == qi):
                # vecdot rounds each speed's sum alike however many
                # speeds there are; a BLAS matrix-vector product does not
                out[row, rows] = np.vecdot(power * mom[ps[row]], wts)
    out *= 2.0 * np.pi * (2.0 * np.pi * s) ** (-1.5)
    if np.ndim(z_norm) == 0:
        out = out[:, 0]
    if orders:
        return out
    return float(out[0]) if np.ndim(z_norm) == 0 else out[0]
