"""Time-indexed probability densities on phase space.

A density model describes a family ``f(t, x, v)`` on R^3 x R^3 (or on a
periodic box in ``x``) together with everything the jump-process engine
and the diagnostics need from it:

* pointwise evaluation of the joint density, its velocity marginal
  ``m(t, v)`` and the positional conditional ``f(t, x | v)``,
* exact samplers for the marginal and for the speed-tilted law
  ``|v| m(t, v) / E|V|`` used by rejection schemes with velocity-dependent
  rates,
* certified upper bounds: a uniform bound on the positional conditional
  and bounds on ``sup_x \\int |v|^p f(t, x, v) dv`` over a time horizon,
* an optional decomposition of the marginal into centred radial-power
  Gaussian components, which lets quadrature code reduce collision-rate
  integrals to one-dimensional radial integrals.

All models here have velocity marginals with finite moments of every
order and positional conditionals bounded uniformly in ``(t, x, v)``,
which is what the acceptance-rejection construction of the jump process
requires.  ``certify_hypotheses`` re-measures those bounds by quadrature
instead of trusting the closed forms.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from .kernels import KernelSpec, angular_weighted_mass
from .quadrature import gauss_hermite_3d, radial_gaussian_moment

__all__ = [
    "DensityModel",
    "RadialMixtureModel",
    "RadialBoxModel",
    "GaussianProductModel",
    "BoxMaxwellianModel",
    "BKWModel",
    "MollifiedEmpiricalModel",
    "RadialComponent",
    "HypothesisCheck",
    "CertificationReport",
    "certify_hypotheses",
    "bkw_relaxation_rate",
    "bkw_fourth_moment",
    "maxwell_abs_moment",
    "pair_blocks",
    "pair_kernel",
    "pair_sq_distances",
    "wrap_position",
]


def maxwell_abs_moment(variance, p):
    """Moment ``E|V|^p`` for ``V ~ N(0, variance * I_3)``.

    Valid for any real ``p > -3``; reduces to the familiar table
    ``E|V| = sqrt(8 s / pi)``, ``E|V|^2 = 3 s``, ``E|V|^4 = 15 s^2``.
    """
    if p <= -3.0:
        raise ValueError("moment order must exceed -3")
    return (2.0 * variance) ** (p / 2.0) * math.exp(
        gammaln((3.0 + p) / 2.0) - gammaln(1.5)
    )


def _tilted_abs_moment(variance, p, power2m):
    """``E|V|^p`` under the density proportional to ``|v|^(2m) N(v; s I)``."""
    if power2m == 0:
        return maxwell_abs_moment(variance, p)
    return maxwell_abs_moment(variance, p + 2 * power2m) / maxwell_abs_moment(
        variance, 2 * power2m
    )


def wrap_position(x, side):
    """Fold positions into the periodic box ``[0, side)^3``."""
    return np.mod(x, side)


def _uniform_directions(rng, n):
    g = rng.standard_normal((n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _sample_radius(rng, n, variance, radial_power):
    """Radii with density proportional to ``r^k exp(-r^2 / (2 s))``.

    Substituting ``y = r^2 / s`` turns the density into a Gamma law with
    shape ``(k + 1) / 2`` and scale 2, so the draw is exact.
    """
    y = rng.gamma(shape=(radial_power + 1) / 2.0, scale=2.0, size=n)
    return np.sqrt(variance * y)


def _radial_vectors(rng, n, component, radial_offset):
    """Draws with radial power ``2m + radial_offset`` for one component."""
    power = 2 * component.power2m + radial_offset
    r = _sample_radius(rng, n, component.variance, power)
    return r[:, None] * _uniform_directions(rng, n)


def _fill_radial(out, u, probs, comps, rng, radial_offset, first):
    """Overwrite the rows of each component from ``first`` on with its draws.

    Component ``k`` takes the rows with ``S_{k+1} <= u < S_k``, where
    ``S_k = sum_{i>=k} p_i``; component 0 takes every row with ``u >= S_1``.
    """
    below = [u < sum(probs[k:]) for k in range(1, len(probs))]
    rows = [~below[0]] + [b & ~nb for b, nb in zip(below, below[1:])] + below[-1:]
    for k in range(first, len(comps)):
        cnt = np.count_nonzero(rows[k])
        if cnt:
            out[rows[k]] = _radial_vectors(rng, cnt, comps[k], radial_offset)


def _gaussian_pdf_3d(delta, variance):
    """Isotropic Gaussian density evaluated at displacement rows."""
    norm = (2.0 * math.pi * variance) ** -1.5
    return norm * np.exp(-0.5 * np.sum(delta * delta, axis=-1) / variance)


# Pairs held in memory at once by every row-by-centre computation: one
# (3, rows, centres) float64 block of displacement planes is under 50 MB.
_PAIR_BUDGET = 2_000_000


def pair_blocks(n_rows, n_cols):
    """Row slices of an ``n_rows`` by ``n_cols`` pair computation.

    Each slice covers as many rows as fit in a fixed budget of pairs (at
    least one), so peak memory does not grow with the query size.
    """
    step = max(1, _PAIR_BUDGET // max(n_cols, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def pair_sq_distances(x, centers, side=None):
    """Displacement planes and squared distances of every row-centre pair.

    Returns ``planes[a, r, k] = x_r[a] - c_k[a]``, taken as the minimum
    image on a periodic box of the given ``side``, and
    ``|x_r - c_k|^2``.  Each coordinate is a contiguous ``(rows, centres)``
    plane, which numpy reduces far faster than a length-3 last axis; the
    squares are summed in the order of a last-axis sum, so the result is
    the same float.
    """
    planes = (
        np.ascontiguousarray(x.T)[:, :, None]
        - np.ascontiguousarray(centers.T)[:, None, :]
    )
    if side is not None:
        wrap = planes / side
        np.round(wrap, out=wrap)
        wrap *= side
        planes -= wrap
    sq = planes[0] * planes[0]
    term = planes[1] * planes[1]
    sq += term
    np.multiply(planes[2], planes[2], out=term)
    sq += term
    return planes, sq


def pair_kernel(x, centers, variance, side=None):
    """Displacements and isotropic Gaussian kernel of every row-centre pair.

    Returns ``delta[r, k] = x_r - c_k``, taken as the minimum image on a
    periodic box of the given ``side`` (a view of the coordinate planes
    of :func:`pair_sq_distances`), and ``N(delta[r, k]; variance I)``.
    """
    planes, kern = pair_sq_distances(x, centers, side)
    kern *= -0.5
    kern /= variance
    np.exp(kern, out=kern)
    kern *= (2.0 * math.pi * variance) ** -1.5
    return planes.transpose(1, 2, 0), kern


@dataclass(frozen=True)
class RadialComponent:
    """One centred component ``weight * |v|^(2m) N(v; variance I) / Z_m``.

    ``Z_m = E|V|^(2m)`` normalises the tilt, so each component is itself
    a probability density and the weights of a decomposition sum to one.
    """

    weight: float
    variance: float
    power2m: int


class DensityModel(ABC):
    """Family ``f(t, x, v)`` with samplers and certified bounds.

    Array conventions: ``x`` and ``v`` are ``(n, 3)`` arrays (or single
    ``(3,)`` vectors), ``t`` is a scalar.  Methods returning densities
    give one value per row.
    """

    #: Period of the spatial box, or None for models on all of R^3.
    box_side: float | None = None
    #: True when the velocity marginal does not depend on ``t``.
    stationary_speeds: bool = False

    @abstractmethod
    def evaluate(self, t, x, v):
        """Joint density ``f(t, x, v)``."""

    @abstractmethod
    def velocity_marginal(self, t, v):
        """Marginal ``m(t, v) = \\int f(t, x, v) dx``."""

    def conditional(self, t, x, v):
        """Positional conditional ``f(t, x | v)``.

        Zero where the marginal vanishes.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        joint = self.evaluate(t, x, v)
        marg = self.velocity_marginal(t, v)
        out = np.zeros_like(joint)
        np.divide(joint, marg, out=out, where=marg > 0.0)
        return out

    @abstractmethod
    def conditional_sup(self, horizon):
        """Uniform bound on ``f(t, x | v)`` over ``t <= horizon`` and all x, v."""

    @abstractmethod
    def sample_velocity(self, t, rng, n):
        """Draw ``n`` velocities from the marginal at time ``t``."""

    @abstractmethod
    def sample_speed_tilted(self, t, rng, n):
        """Draw from the speed-tilted marginal ``|v| m(t, v) / E|V|``."""

    @abstractmethod
    def sample_state(self, t, rng, n):
        """Draw ``(x, v)`` pairs from the joint density at time ``t``."""

    def mean_speed(self, t):
        """Exact ``E|V|`` under the marginal at time ``t``."""
        return self.speed_moment(t, 1)

    @abstractmethod
    def speed_moment(self, t, p):
        """Exact ``E|V|^p`` under the marginal at time ``t`` (p > -3)."""

    def speed_sq_bound(self, horizon):
        """Upper bound on ``sup_{t <= horizon} E|V|^2``.

        ``E|V| <= sqrt(E|V|^2)`` turns this into a horizon-wide bound on
        the mean speed, which rejection envelopes rely on.
        """
        return self._speed_moment_sup(2, horizon, 257) * (1.0 + 1e-9)

    def _speed_moment_sup(self, p, horizon, n_grid):
        """``max E|V|^p`` over ``n_grid`` times in ``[0, horizon]``.

        A family with stationary speeds gives the same float at every
        time, so it is read once.
        """
        if self.stationary_speeds:
            return self.speed_moment(0.0, p)
        grid = np.linspace(0.0, horizon, n_grid)
        return float(max(self.speed_moment(t, p) for t in grid))

    def moment_bound(self, p, horizon):
        """Bound on ``sup_{t <= horizon} sup_x \\int |v|^p f(t, x, v) dv``.

        ``f(t, x, v) = f(t, x | v) m(t, v)``, so the conditional's sup
        times the largest ``E|V|^p`` over 2049 times, with 1e-9 slack,
        bounds it.
        """
        return (
            self.conditional_sup(horizon)
            * self._speed_moment_sup(p, horizon, 2049)
            * (1.0 + 1e-9)
        )

    @abstractmethod
    def gradient_moment_bound(self, horizon):
        """Bound on ``sup_{t, x} \\int max(1, |v|^2) |grad_x f| dv``."""

    @abstractmethod
    def grad_x(self, t, x, v):
        """Spatial gradient of the joint density, one row per input row."""

    def radial_components(self, t):
        """Centred radial-power Gaussian decomposition of the marginal.

        Returns a sequence of :class:`RadialComponent` whose weighted sum
        is ``m(t, .)``, or None when no such decomposition exists.
        """
        return None


class RadialMixtureModel(DensityModel):
    """Family whose velocity marginal is a finite radial-power Gaussian mixture.

    Subclasses give :meth:`radial_components`, with component 0 the plain
    Gaussian (``power2m == 0``); the marginal, both velocity samplers and
    the speed moments follow from it.  A sampler picks component ``k``
    when ``u < sum_{i >= k} p_i`` for one uniform ``u`` per draw, and a
    single-component mixture draws no ``u`` at all.
    """

    @abstractmethod
    def radial_components(self, t):
        """Mixture components at time ``t``; component 0 is the plain Gaussian."""

    def velocity_marginal(self, t, v):
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        r2 = np.sum(v * v, axis=-1)
        terms = []
        exp_var = None
        for c in self.radial_components(t):
            if c.variance != exp_var:
                exp_var = c.variance
                gauss = np.exp(-0.5 * r2 / exp_var)
            coef = c.weight * (2.0 * math.pi * exp_var) ** -1.5
            if c.power2m:
                z_m = maxwell_abs_moment(exp_var, 2 * c.power2m)
                coef = coef / z_m * r2**c.power2m
            terms.append(coef * gauss)
        return sum(terms[1:], terms[0])

    def sample_velocity(self, t, rng, n):
        comps = self.radial_components(t)
        u = rng.random(n) if len(comps) > 1 else None
        # A plain Gaussian draw for every row, then the others overwrite theirs.
        out = math.sqrt(comps[0].variance) * rng.standard_normal((n, 3))
        if u is not None:
            _fill_radial(out, u, [c.weight for c in comps], comps, rng, 2, first=1)
        return out

    def sample_speed_tilted(self, t, rng, n):
        comps = self.radial_components(t)
        if len(comps) == 1:
            return _radial_vectors(rng, n, comps[0], 3)
        masses = [
            c.weight * _tilted_abs_moment(c.variance, 1, c.power2m) for c in comps
        ]
        total = sum(masses)
        u = rng.random(n)
        out = np.empty((n, 3))
        _fill_radial(out, u, [m / total for m in masses], comps, rng, 3, first=0)
        return out

    def speed_moment(self, t, p):
        total = 0.0
        for c in self.radial_components(t):
            total += c.weight * _tilted_abs_moment(c.variance, p, c.power2m)
        return total


class GaussianProductModel(RadialMixtureModel):
    """Maxwellian velocities times an isotropic Gaussian position bump.

    With ``drift="static"`` the density is constant in time,

        f(t, x, v) = N(x; 0, pos_var I) N(v; 0, vel_var I).

    With ``drift="free_transport"`` the position bump is carried along
    straight-line characteristics,

        f(t, x, v) = N(x - t v; 0, pos_var I) N(v; 0, vel_var I),

    which solves the collisionless transport equation exactly and gives
    the engine an analytically known time-dependent driver.  It is a
    global Maxwellian: given ``x``, the velocity is Gaussian with mean
    ``s t x / (p + s t^2)`` and variance ``s p / (p + s t^2)`` per axis
    (``s = vel_var``, ``p = pos_var``), so ``f`` is a local Maxwellian at
    every point, ``Q(f, f) = 0``, and the family solves the full
    Boltzmann equation in vacuum for every collision kernel.
    """

    stationary_speeds = True

    def __init__(self, vel_var=1.0, pos_var=1.0, drift="static"):
        if vel_var <= 0.0 or pos_var <= 0.0:
            raise ValueError("variances must be positive")
        if drift not in ("static", "free_transport"):
            raise ValueError(f"unknown drift mode {drift!r}")
        self.vel_var = float(vel_var)
        self.pos_var = float(pos_var)
        self.drift = drift
        self.box_side = None
        self._components = (RadialComponent(1.0, self.vel_var, 0),)

    def radial_components(self, t):
        return self._components

    def _center(self, t, v):
        if self.drift == "free_transport":
            return t * v
        return np.zeros_like(v)

    def evaluate(self, t, x, v):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        pos = _gaussian_pdf_3d(x - self._center(t, v), self.pos_var)
        return pos * self.velocity_marginal(t, v)

    def conditional(self, t, x, v):
        # f(t, x | v) is the position bump wherever the marginal is positive
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        pos = _gaussian_pdf_3d(x - self._center(t, v), self.pos_var)
        return np.where(self.velocity_marginal(t, v) > 0.0, pos, 0.0)

    def conditional_sup(self, horizon):
        return (2.0 * math.pi * self.pos_var) ** -1.5

    def sample_state(self, t, rng, n):
        v = self.sample_velocity(t, rng, n)
        x = self._center(t, v) + math.sqrt(self.pos_var) * rng.standard_normal((n, 3))
        return x, v

    def gradient_moment_bound(self, horizon):
        # sup_r r exp(-r^2 / (2 pv)) / pv is attained at r = sqrt(pv).
        grad_peak = (
            (2.0 * math.pi * self.pos_var) ** -1.5
            * math.exp(-0.5)
            / math.sqrt(self.pos_var)
        )
        return grad_peak * (1.0 + 3.0 * self.vel_var)

    def grad_x(self, t, x, v):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        delta = x - self._center(t, v)
        f = self.evaluate(t, x, v)
        return -f[:, None] * delta / self.pos_var


class RadialBoxModel(RadialMixtureModel):
    """Spatially uniform radial mixture on a periodic box.

    f(t, x, v) = m(t, v) / side^3 for x in [0, side)^3, with ``m`` the
    mixture of :meth:`radial_components`.
    """

    def __init__(self, side, vel_var):
        if side <= 0.0 or vel_var <= 0.0:
            raise ValueError("box side and velocity variance must be positive")
        self.side = float(side)
        self.vel_var = float(vel_var)
        self.box_side = self.side

    def evaluate(self, t, x, v):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        marg = self.velocity_marginal(t, v)
        if x.shape[0] > marg.shape[0]:
            marg = np.broadcast_to(marg, (x.shape[0],))
        return marg * self.side**-3

    def conditional(self, t, x, v):
        # f(t, x | v) is side^-3 wherever the marginal is positive
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        positive = self.velocity_marginal(t, v) > 0.0
        return np.where(positive, self.side**-3, np.zeros(x.shape[0]))

    def conditional_sup(self, horizon):
        return self.side**-3

    def sample_state(self, t, rng, n):
        x = self.side * rng.random((n, 3))
        v = self.sample_velocity(t, rng, n)
        return x, v

    def gradient_moment_bound(self, horizon):
        return 0.0

    def grad_x(self, t, x, v):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        n = max(x.shape[0], v.shape[0])
        return np.zeros((n, 3))


class BoxMaxwellianModel(RadialBoxModel):
    """Spatially uniform Maxwellian on a periodic box.

    f(t, x, v) = N(v; 0, vel_var I) / side^3 for x in [0, side)^3.

    This law is stationary for the collision dynamics, so it doubles as
    the reference equilibrium in relaxation and entropy experiments.
    """

    stationary_speeds = True

    def __init__(self, side=1.0, vel_var=1.0):
        super().__init__(side, vel_var)
        self._components = (RadialComponent(1.0, self.vel_var, 0),)

    def radial_components(self, t):
        return self._components


class BKWModel(RadialBoxModel):
    """Bobylev-Krook-Wu relaxing family on a periodic box.

    The velocity marginal is the classical closed-form solution of the
    spatially homogeneous equation with constant collision rate,

        q(t, v) = N(v; 0, s K I) [ (5K - 3)/(2K)
                                   + (1 - K)/(2 K^2) |v|^2 / s ],

    with ``K(t) = 1 - c0 exp(-rate * t)``.  Energy ``E|V|^2 = 3 s`` is
    conserved while the fourth moment relaxes as
    ``E|V|^4 = 15 s^2 K (2 - K)``.  The family stays nonnegative for
    ``0 < c0 <= 2/5``.  ``rate`` must match the collision kernel for the
    family to be dynamically consistent; :func:`bkw_relaxation_rate`
    computes that value.
    """

    def __init__(self, side=1.0, vel_var=1.0, c0=0.4, rate=1.0):
        super().__init__(side, vel_var)
        if not 0.0 < c0 <= 0.4:
            raise ValueError("c0 must lie in (0, 2/5] for a nonnegative density")
        if rate <= 0.0:
            raise ValueError("relaxation rate must be positive")
        self.c0 = float(c0)
        self.rate = float(rate)
        self._last_mixture = (None, ())

    def shape_factor(self, t):
        """``K(t) = 1 - c0 exp(-rate t)``, increasing from ``1 - c0`` to 1."""
        return 1.0 - self.c0 * math.exp(-self.rate * t)

    def fourth_moment(self, t):
        """Closed form ``E|V|^4 = 15 s^2 K(t) (2 - K(t))``."""
        k = self.shape_factor(t)
        return 15.0 * self.vel_var**2 * k * (2.0 - k)

    def speed_sq_bound(self, horizon):
        # the energy E|V|^2 = 3 s is conserved: no scan over the horizon
        return 3.0 * self.vel_var * (1.0 + 1e-9)

    def radial_components(self, t):
        # Each jump candidate reads the mixture several times at one time.
        last_t, comps = self._last_mixture
        if t != last_t:
            k = self.shape_factor(t)
            sk = self.vel_var * k
            comps = (
                RadialComponent((5.0 * k - 3.0) / (2.0 * k), sk, 0),
                RadialComponent(3.0 * (1.0 - k) / (2.0 * k), sk, 1),
            )
            self._last_mixture = (t, comps)
        return comps


class MollifiedEmpiricalModel(DensityModel):
    """Gaussian-mollified empirical measure of a particle snapshot.

    f(x, v) = (1/N) sum_i N(x - x_i; h_x^2 I) N(v - v_i; h_v^2 I),

    frozen in time (the snapshot already carries its timestamp; the ``t``
    arguments are accepted and ignored).  On a periodic box the spatial
    kernel uses the minimum-image displacement, which matches the exact
    periodic heat kernel up to terms of order ``exp(-(side/2)^2 / (2 h_x^2))``
    and therefore requires ``h_x`` well below the box side.
    """

    stationary_speeds = True

    def __init__(self, positions, velocities, h_x, h_v, side=None):
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        if velocities.shape != positions.shape:
            raise ValueError("velocities must match positions in shape")
        if not (np.isfinite(positions).all() and np.isfinite(velocities).all()):
            raise ValueError("particle states must be finite")
        if h_x <= 0.0 or h_v <= 0.0:
            raise ValueError("mollifier widths must be positive")
        if side is not None:
            if side <= 0.0:
                raise ValueError("box side must be positive")
            if h_x > side / 8.0:
                raise ValueError("spatial width too large for the periodic box")
            positions = wrap_position(positions, side)
        self.positions = positions
        self.velocities = velocities
        self.h_x = float(h_x)
        self.h_v = float(h_v)
        self.box_side = None if side is None else float(side)
        self._speeds = np.linalg.norm(velocities, axis=1)
        # E|v_i + h_v xi| has a closed radial-integral form; precompute
        # the per-particle means once since the snapshot never changes.
        self._tilt_masses = radial_gaussian_moment(self._speeds, self.h_v**2, 0, 1)

    @classmethod
    def from_csv(cls, path, h_x, h_v, side=None):
        """Load a snapshot written with columns x1,x2,x3,v1,v2,v3."""
        data = np.genfromtxt(path, delimiter=",", names=True)
        cols = ["x1", "x2", "x3", "v1", "v2", "v3"]
        missing = [c for c in cols if c not in (data.dtype.names or ())]
        if missing:
            raise ValueError(f"snapshot file lacks columns {missing}")
        stacked = np.column_stack([np.atleast_1d(data[c]) for c in cols])
        return cls(stacked[:, :3], stacked[:, 3:], h_x, h_v, side=side)

    @staticmethod
    def _query(x, v):
        """Query rows as ``(n, 3)`` arrays broadcast against each other."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        return np.broadcast_arrays(x, v)

    def _kernel_blocks(self, x, v):
        """Row blocks of a query with both kernels of every row-particle pair.

        Yields each block's slice, its minimum-image displacements from
        the particles, and the spatial and velocity kernels.
        """
        for rows in pair_blocks(len(x), len(self.positions)):
            dx, gx = pair_kernel(x[rows], self.positions, self.h_x**2, self.box_side)
            _, gv = pair_kernel(v[rows], self.velocities, self.h_v**2)
            yield rows, dx, gx, gv

    def evaluate(self, t, x, v):
        x, v = self._query(x, v)
        out = np.empty(len(x))
        for rows, _, gx, gv in self._kernel_blocks(x, v):
            out[rows] = np.mean(gx * gv, axis=1)
        return out

    def velocity_marginal(self, t, v):
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        out = np.empty(v.shape[0])
        for rows in pair_blocks(v.shape[0], len(self.velocities)):
            _, gv = pair_kernel(v[rows], self.velocities, self.h_v**2)
            out[rows] = np.mean(gv, axis=1)
        return out

    def conditional(self, t, x, v):
        # one velocity kernel per block serves the joint and the marginal
        x, v = self._query(x, v)
        out = np.zeros(len(x))
        for rows, _, gx, gv in self._kernel_blocks(x, v):
            marg = np.mean(gv, axis=1)
            np.divide(
                np.mean(gx * gv, axis=1), marg, out=out[rows], where=marg > 0.0
            )
        return out

    def conditional_sup(self, horizon):
        return (2.0 * math.pi * self.h_x**2) ** -1.5

    def sample_velocity(self, t, rng, n):
        idx = rng.integers(0, len(self.velocities), size=n)
        return self.velocities[idx] + self.h_v * rng.standard_normal((n, 3))

    def sample_speed_tilted(self, t, rng, n):
        # Component i is chosen with probability proportional to its
        # mean speed, then |v| N(v; v_i, h^2) / E_i is drawn by rejection
        # under the envelope (|v_i| + |v - v_i|) N(v; v_i, h^2).
        probs = self._tilt_masses / self._tilt_masses.sum()
        idx = rng.choice(len(self.velocities), size=n, p=probs)
        out = np.empty((n, 3))
        pending = np.arange(n)
        for _ in range(200):
            m = len(pending)
            centers = self.velocities[idx[pending]]
            center_speed = self._speeds[idx[pending]]
            shift_mean = maxwell_abs_moment(self.h_v**2, 1)
            take_shift = rng.random(m) < shift_mean / (center_speed + shift_mean)
            shift = self.h_v * rng.standard_normal((m, 3))
            tilted_r = _sample_radius(rng, m, self.h_v**2, 3)
            shift = np.where(
                take_shift[:, None],
                tilted_r[:, None] * _uniform_directions(rng, m),
                shift,
            )
            cand = centers + shift
            ratio = np.linalg.norm(cand, axis=1) / (
                center_speed + np.linalg.norm(shift, axis=1)
            )
            accept = rng.random(m) < ratio
            out[pending[accept]] = cand[accept]
            pending = pending[~accept]
            if len(pending) == 0:
                return out
        raise RuntimeError("speed-tilted rejection sampler failed to terminate")

    def sample_state(self, t, rng, n):
        idx = rng.integers(0, len(self.velocities), size=n)
        x = self.positions[idx] + self.h_x * rng.standard_normal((n, 3))
        if self.box_side is not None:
            x = wrap_position(x, self.box_side)
        v = self.velocities[idx] + self.h_v * rng.standard_normal((n, 3))
        return x, v

    def mean_speed(self, t):
        return float(self._tilt_masses.mean())

    def speed_moment(self, t, p):
        vals = radial_gaussian_moment(self._speeds, self.h_v**2, 0, p)
        return float(vals.mean())

    def gradient_moment_bound(self, horizon):
        grad_peak = (
            (2.0 * math.pi * self.h_x**2) ** -1.5 * math.exp(-0.5) / self.h_x
        )
        return grad_peak * (1.0 + self.speed_moment(0.0, 2)) * (1.0 + 1e-9)

    def grad_x(self, t, x, v):
        x, v = self._query(x, v)
        out = np.empty((len(x), 3))
        for rows, dx, gx, gv in self._kernel_blocks(x, v):
            # C order keeps the particle sum of each row in the order of
            # (rows, particles, 3) arrays, whatever layout dx has
            weights = np.multiply(
                (gx * gv)[:, :, None], -dx / self.h_x**2, order="C"
            )
            out[rows] = np.mean(weights, axis=1)
        return out


def bkw_relaxation_rate(kernel: KernelSpec):
    """Relaxation rate that makes the closed family consistent.

    Equals ``2 pi c \\int sin^2(theta/2) cos^2(theta/2) Q(dtheta)``, the
    constant governing fourth-moment decay at constant collision rate.
    """
    beta1 = angular_weighted_mass(kernel, "sin2_half")
    beta2 = angular_weighted_mass(kernel, "sin4_half")
    return 2.0 * math.pi * kernel.c * (beta1 - beta2)


def bkw_fourth_moment(
    times,
    kernel: KernelSpec,
    vel_var=1.0,
    c0=0.4,
    m2_init=None,
    m4_init=None,
    rate=None,
):
    """Second and fourth moments of a tagged particle in a relaxing bath.

    The tagged velocity jumps at the constant rate set by ``kernel``
    (``gamma`` must be 0) against bath velocities drawn from the closed
    relaxing family with energy ``3 vel_var`` and shape parameter
    ``K(t) = 1 - c0 exp(-rate t)``.  Averaging the post-collision moments
    over the angular measure closes the evolution into a linear system

        m2' = 2 pi c b1 (a2 - m2)
        m4' = c [ 4 pi b1 (a2 m2 - m4)
                  + 2 pi b2 (a4(t) - 2 a2 m2 + m4)
                  + (8 pi / 3)(b1 - b2) a2 m2 ]

    with ``b1 = \\int sin^2(theta/2) Q``, ``b2 = \\int sin^4(theta/2) Q``,
    bath moments ``a2 = 3 s`` and ``a4(t) = 15 s^2 K (2 - K)``.  The
    system is integrated with tight tolerances and gives an independent
    prediction for simulated moments.

    Parameters
    ----------
    times : array_like
        Query times, nonnegative.
    kernel : KernelSpec
        Collision kernel; requires ``gamma == 0``.
    vel_var, c0 : float
        Bath parameters (per-component variance and initial shape gap).
    m2_init, m4_init : float, optional
        Tagged-particle moments at time zero.  Default to the bath's own
        moments, the case of a particle started in the bath law.
    rate : float, optional
        Bath relaxation rate; defaults to :func:`bkw_relaxation_rate`.

    Returns
    -------
    (m2, m4) : pair of ndarrays matching ``times``.
    """
    if kernel.gamma != 0.0:
        raise ValueError(
            "moment closure requires a velocity-independent collision rate "
            "(gamma = 0)"
        )
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if times.size == 0 or (times < 0.0).any():
        raise ValueError("query times must be nonnegative")
    if rate is None:
        rate = bkw_relaxation_rate(kernel)
    s = float(vel_var)
    beta1 = angular_weighted_mass(kernel, "sin2_half")
    beta2 = angular_weighted_mass(kernel, "sin4_half")
    c = kernel.c
    a2 = 3.0 * s

    def bath_m4(t):
        k = 1.0 - c0 * np.exp(-rate * t)
        return 15.0 * s * s * k * (2.0 - k)

    if m2_init is None:
        m2_init = a2
    if m4_init is None:
        m4_init = bath_m4(0.0)

    def rhs(t, y):
        m2, m4 = y
        d2 = 2.0 * math.pi * c * beta1 * (a2 - m2)
        d4 = c * (
            4.0 * math.pi * beta1 * (a2 * m2 - m4)
            + 2.0 * math.pi * beta2 * (bath_m4(t) - 2.0 * a2 * m2 + m4)
            + (8.0 * math.pi / 3.0) * (beta1 - beta2) * a2 * m2
        )
        return [d2, d4]

    t_end = float(times.max())
    sol = solve_ivp(
        rhs,
        (0.0, max(t_end, 1e-12)),
        [float(m2_init), float(m4_init)],
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"moment integration failed: {sol.message}")
    vals = sol.sol(times)
    return vals[0], vals[1]


@dataclass
class HypothesisCheck:
    """Outcome of one measured bound."""

    name: str
    description: str
    measured: float
    declared_bound: float
    refinement_drift: float
    passed: bool


@dataclass
class CertificationReport:
    """Collected hypothesis checks for one model and kernel."""

    model: str
    gamma: float
    horizon: float
    checks: list[HypothesisCheck] = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _position_grid(model, horizon, n_side):
    if model.box_side is not None:
        edges = np.linspace(0.0, model.box_side, n_side, endpoint=False)
    else:
        spread = 1.0
        if isinstance(model, GaussianProductModel):
            spread = math.sqrt(model.pos_var)
            if model.drift == "free_transport":
                spread += horizon * math.sqrt(model.vel_var) * 3.0
        elif isinstance(model, MollifiedEmpiricalModel):
            spread = float(np.abs(model.positions).max()) + 4.0 * model.h_x
        edges = np.linspace(-2.5 * spread, 2.5 * spread, n_side)
    xg, yg, zg = np.meshgrid(edges, edges, edges, indexing="ij")
    return np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])


def _moment_suprema(model, times, x_grid, powers, n_nodes):
    """Suprema over the grid of ``\\int |v|^p f dv`` and the gradient moment.

    Integrates against a Maxwellian envelope matched to the model's
    velocity scale, evaluating the joint density once per time and
    reusing it for every velocity weight.  Returns one supremum per
    entry of ``powers`` plus the gradient-moment supremum appended last.
    """
    n_x = len(x_grid)
    sups = np.zeros(len(powers) + 1)
    for t in times:
        scale_sq = max(model.speed_moment(t, 2) / 3.0, 1e-12)
        nodes, weights = gauss_hermite_3d(n_nodes, scale_sq)
        ratio = weights / _gaussian_pdf_3d(nodes, scale_sq)
        speeds = np.linalg.norm(nodes, axis=1)
        xs = np.repeat(x_grid, len(nodes), axis=0)
        vs = np.tile(nodes, (n_x, 1))
        f_vals = model.evaluate(t, xs, vs).reshape(n_x, len(nodes))
        for k, p in enumerate(powers):
            integ = f_vals @ (ratio * speeds**p)
            sups[k] = max(sups[k], float(integ.max()))
        g_norm = np.linalg.norm(model.grad_x(t, xs, vs), axis=1)
        cap = np.maximum(1.0, speeds * speeds)
        integ = g_norm.reshape(n_x, len(nodes)) @ (ratio * cap)
        sups[-1] = max(sups[-1], float(integ.max()))
    return sups


def certify_hypotheses(model, kernel, horizon, n_time=5, n_side=4, n_nodes=16):
    """Measure the integrability bounds the jump construction relies on.

    For a grid of times and positions the following quantities are
    integrated in ``v`` by Gauss-Hermite quadrature and compared against
    the model's declared bounds:

    * mass ``\\int f dv`` and moments ``\\int |v|^p f dv`` for
      ``p = 1 + gamma, 2, 3``,
    * the gradient moment ``\\int max(1, |v|^2) |grad_x f| dv``.

    Every check also repeats the quadrature with 1.5x the node count;
    a drift beyond 0.5% marks the value unresolved and fails the check,
    which is how a divergent integrand shows up.

    Returns a :class:`CertificationReport`; no exception is raised for a
    failed bound so callers can inspect partial results.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    times = np.linspace(0.0, horizon, n_time)
    x_grid = _position_grid(model, horizon, n_side)
    report = CertificationReport(
        model=type(model).__name__, gamma=kernel.gamma, horizon=horizon
    )

    powers = [0.0, 1.0 + kernel.gamma, 2.0, 3.0]
    names = ["mass", "moment_1+gamma", "moment_2", "moment_3"]
    declared = [model.moment_bound(p, horizon) for p in powers]
    declared.append(model.gradient_moment_bound(horizon))
    names.append("gradient_moment")

    coarse = _moment_suprema(model, times, x_grid, powers, n_nodes)
    fine = _moment_suprema(model, times, x_grid, powers, int(n_nodes * 1.5))

    for k, (name, bound) in enumerate(zip(names, declared)):
        drift = abs(fine[k] - coarse[k]) / max(abs(fine[k]), 1e-300)
        ok = bool(np.isfinite(fine[k])) and fine[k] <= bound * 1.005 + 1e-12
        # The gradient weight max(1, |v|^2) has a kink, which slows the
        # Gauss-Hermite rate; a divergent integrand still shows up as
        # order-one growth under refinement, so the looser guard keeps
        # its purpose.
        drift_tol = 2e-2 if name == "gradient_moment" else 5e-3
        if fine[k] > 1e-12:
            ok = ok and drift < drift_tol
        if name == "gradient_moment":
            desc = "sup_(t,x) int max(1,|v|^2) |grad_x f| dv"
        else:
            desc = (
                f"sup_(t,x) int |v|^{powers[k]:g} f dv over horizon {horizon:g}"
            )
        report.checks.append(
            HypothesisCheck(
                name=name,
                description=desc,
                measured=float(fine[k]),
                declared_bound=float(bound),
                refinement_drift=float(drift),
                passed=ok,
            )
        )
    return report
