"""Certificates for the identities behind the jump-process construction.

Each operation here turns one of the structural facts the simulator
depends on into a number with an explicit tolerance: annihilation of
collision invariants by the collision operator, the closed kinetic
energy exchange rate, weak-form residuals along simulated paths, the
pre/post symmetry of the collision map, relative entropy against an
analytic reference, and exit-probability bounds.

The quadrature backbone is the radial reduction of ``quadrature``:
against an isotropic Gaussian (or a ``|v|^2``-tilted one) the inner
velocity integral of the collision operator collapses to the
primitives ``T_{p,q}``, so the generator applied to any quadratic test
function is exact up to one-dimensional quadrature error.  Monte Carlo
enters only through simulated ensembles, and every Monte Carlo verdict
is a three-sigma statistical contract, never an exact-zero assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .densities import (
    GaussianProductModel,
    RadialBoxModel,
    pair_blocks,
    pair_sq_distances,
)
from .geometry import orthonormal_frame
from .kernels import angular_weighted_mass
from .quadrature import gauss_hermite_3d, gauss_legendre, radial_gaussian_moment

__all__ = [
    "TestFunction",
    "Constant",
    "LinearMomentum",
    "Energy",
    "Quadratic",
    "CompactBump",
    "ResidualReport",
    "smooth_bump",
    "collision_action",
    "collision_invariant_residual",
    "energy_flow_values",
    "energy_rhs_report",
    "weak_residual",
    "collision_symmetry_gap",
    "EntropyReport",
    "gaussian_kl",
    "entropy_bias_budget",
    "relative_entropy_kde",
    "ExitReport",
    "exit_statistics",
    "MomentTable",
    "moment_report",
]

def smooth_bump(u):
    """Flat-topped compactly supported bump ``exp(1 - 1/(1 - u^2))``.

    Equals 1 at ``u = 0``, vanishes with all derivatives at ``|u| = 1``
    and is zero outside.  Infinitely differentiable, which keeps
    Gauss-Legendre quadrature of bump integrands fast-converging.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


class TestFunction:
    """Observable ``psi(x, z)`` paired with the data the generator needs.

    Concrete kinds either depend on the velocity alone through a
    quadratic form ``z^T A z + b . z + const`` (so the collision action
    reduces to radial primitives) or on the position alone (so the
    collision action vanishes and only transport contributes).
    """

    kind = "abstract"
    #: quadratic form of the velocity part, or None for position-only.
    quad_matrix: np.ndarray | None = None
    lin_vector: np.ndarray | None = None

    def value(self, x, z):
        raise NotImplementedError

    def grad_x(self, x, z):
        """Spatial gradient, zero for velocity-only observables."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.zeros_like(x)

    def grad_z(self, x, z):
        """Velocity gradient, zero for position-only observables."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return np.zeros_like(z)

    @property
    def collision_active(self):
        """Whether collisions move this observable at all."""
        if self.quad_matrix is None:
            return False
        return bool(
            np.any(self.quad_matrix != 0.0) or np.any(self.lin_vector != 0.0)
        )


class Quadratic(TestFunction):
    """General velocity quadratic ``z^T A z + b . z + offset``.

    ``A`` is symmetrised on input; off-diagonal entries exercise the
    tensor part of the azimuthal averages that the pure energy
    observable cannot see.
    """

    kind = "quadratic"

    def __init__(self, matrix, vector=None, offset=0.0):
        a = np.asarray(matrix, dtype=np.float64).reshape(3, 3)
        self.quad_matrix = 0.5 * (a + a.T)
        if vector is None:
            vector = np.zeros(3)
        self.lin_vector = np.asarray(vector, dtype=np.float64).reshape(3).copy()
        self.offset = float(offset)

    def value(self, x, z):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        quad = np.einsum("ni,ij,nj->n", z, self.quad_matrix, z)
        return quad + z @ self.lin_vector + self.offset

    def grad_z(self, x, z):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return 2.0 * z @ self.quad_matrix + self.lin_vector


class Constant(Quadratic):
    """``psi = level``; annihilated by both transport and collisions."""

    kind = "constant"

    def __init__(self, level=1.0):
        Quadratic.__init__(self, np.zeros((3, 3)), offset=level)


class LinearMomentum(Quadratic):
    """``psi = b . z``, the momentum component along ``b``."""

    kind = "linear_momentum"

    def __init__(self, direction):
        Quadratic.__init__(self, np.zeros((3, 3)), direction)


class Energy(Quadratic):
    """``psi = |z|^2``, twice the kinetic energy per unit mass."""

    kind = "energy"

    def __init__(self):
        Quadratic.__init__(self, np.eye(3))


class CompactBump(TestFunction):
    """Position-only bump ``smooth_bump(|x - center| / radius)``.

    Collisions leave it untouched, so along any simulated path the
    weak-form identity for this observable reduces to the transport
    integral, which telescopes exactly because positions are continuous
    and piecewise linear.
    """

    kind = "compact_bump"
    quad_matrix = None
    lin_vector = None

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        if radius <= 0.0:
            raise ValueError("bump radius must be positive")
        self.radius = float(radius)

    def value(self, x, z):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        r = np.linalg.norm(x - self.center, axis=1)
        return smooth_bump(r / self.radius)

    def grad_x(self, x, z):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        delta = x - self.center
        u2 = np.sum(delta * delta, axis=1) / self.radius**2
        out = np.zeros_like(delta)
        inside = u2 < 1.0
        if np.any(inside):
            val = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
            slope = -2.0 * val / (1.0 - u2[inside]) ** 2 / self.radius**2
            out[inside] = slope[:, None] * delta[inside]
        return out


@dataclass
class ResidualReport:
    """Two-sided comparison with a combined error budget.

    The verdict convention is shared by every operation in this module:
    PASS iff ``|difference| <= 3 * stderr + tolerance``, where
    ``tolerance`` covers deterministic quadrature error and ``stderr``
    the Monte Carlo part (zero for pure-quadrature checks).
    """

    operation: str
    lhs: float
    rhs: float
    stderr: float
    tolerance: float
    n_samples: int = 0
    details: dict = field(default_factory=dict)

    @property
    def difference(self):
        return self.lhs - self.rhs

    @property
    def verdict(self):
        return bool(
            abs(self.difference) <= 3.0 * self.stderr + self.tolerance
        )

    def as_dict(self):
        """JSON-ready summary used by report writers."""
        return {
            "operation": self.operation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "difference": self.difference,
            "stderr": self.stderr,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "verdict": "PASS" if self.verdict else "FAIL",
            "details": dict(self.details),
        }


def _tilted_moment(speeds, component, p, q, radial_factor=None, n_nodes=400):
    """Primitive ``T_{p,q}`` against one (possibly tilted) component.

    For a ``|v|^2``-tilted component the substitution ``v = y + w``
    expands ``|v|^2 = |y|^2 + 2 |y| (yhat.what) |w| + |w|^2`` exactly,
    so the tilt costs two extra primitives with shifted orders.
    """
    s = component.variance
    out = np.empty_like(speeds)
    # radial_gaussian_moment takes n_nodes // 2 + n_nodes nodes per speed
    for rows in pair_blocks(len(speeds), n_nodes // 2 + n_nodes):
        r = speeds[rows]
        if component.power2m == 0:
            val = radial_gaussian_moment(
                r, s, p, q, n_nodes=n_nodes, radial_factor=radial_factor
            )
        elif component.power2m == 1:
            t0 = radial_gaussian_moment(
                r, s, p, q, n_nodes=n_nodes, radial_factor=radial_factor
            )
            t1 = radial_gaussian_moment(
                r, s, p + 1, q + 1.0, n_nodes=n_nodes, radial_factor=radial_factor
            )
            t2 = radial_gaussian_moment(
                r, s, p, q + 2.0, n_nodes=n_nodes, radial_factor=radial_factor
            )
            val = (r * r * t0 + 2.0 * r * t1 + t2) / (3.0 * s)
        else:
            raise NotImplementedError(
                f"tilt power 2m = {2 * component.power2m} not supported"
            )
        out[rows] = val
    return out


def _reduced_action(kernel, components, z, level, radial_factor, n_nodes, A, b):
    """Azimuth- and angle-averaged collision action on a quadratic.

    Evaluates, for each row of ``z``,

        int [psi(z + a) - psi(z)] sigma(|v - y|) m(v) dv Q(dtheta) dphi

    where ``y`` is ``z`` pulled back to the ball of radius ``level``
    (``y = z`` when ``level`` is None), ``a`` is the deflection built
    from ``(y, v)``, ``psi(z) = z^T A z + b.z`` and ``m`` is the mixture
    described by ``components``.  The phi integral leaves first and
    second moments of the deflection; the theta integral contributes
    the ``sin^2`` and ``sin^4`` half-angle masses; the velocity
    integral reduces to radial primitives at base speed ``|y|``.
    The spatial weight of the background is NOT included.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    z_norm = np.linalg.norm(z, axis=1)
    # Direction is preserved by the radial projection, so zhat serves
    # for y as well; at z = 0 the T_1 factor vanishes and the T_2
    # combination is direction-free, making the placeholder harmless.
    safe = np.where(z_norm > 0.0, z_norm, 1.0)
    zhat = z / safe[:, None]
    zhat[z_norm == 0.0] = np.array([0.0, 0.0, 1.0])
    if level is None:
        y_norm = z_norm
    else:
        y_norm = z_norm / (1.0 + np.maximum(z_norm - level, 0.0))

    beta1 = angular_weighted_mass(kernel, "sin2_half")
    beta2 = angular_weighted_mass(kernel, "sin4_half")
    gamma = kernel.gamma
    tr_a = float(np.trace(A))
    zaz = np.einsum("ni,ij,nj->n", zhat, A, zhat)
    bz = zhat @ b

    total = np.zeros(len(z))
    for comp in components:
        t1 = _tilted_moment(y_norm, comp, 1, gamma + 1.0, radial_factor, n_nodes)
        linear = beta1 * (2.0 * z_norm * zaz + bz) * t1
        quad = np.zeros_like(linear)
        if tr_a != 0.0 or np.any(A != 0.0):
            t0 = _tilted_moment(
                y_norm, comp, 0, gamma + 2.0, radial_factor, n_nodes
            )
            t2 = _tilted_moment(
                y_norm, comp, 2, gamma + 2.0, radial_factor, n_nodes
            )
            w_aw = zaz * t2 + (tr_a - zaz) * 0.5 * (t0 - t2)
            quad = (beta2 - 0.5 * (beta1 - beta2)) * w_aw + 0.5 * (
                beta1 - beta2
            ) * tr_a * t0
        total += comp.weight * (linear + quad)
    return 2.0 * math.pi * kernel.c * total


def collision_action(model, kernel, psi, t, z, level=None, n_nodes=400):
    """Generator of the collision jumps applied to ``psi`` at ``z``.

    Includes the uniform spatial weight ``1 / side^3`` of the
    background, so the result is the expected rate of change of
    ``psi(Z)`` for a tagged particle at any position of the box.

    Parameters
    ----------
    model : DensityModel
        Spatially uniform background (box families only).
    kernel : KernelSpec
    psi : TestFunction
        Velocity-quadratic or position-only observable.
    t : float
        Time at which the background mixture is read.
    z : array_like, shape (n, 3)
        Tagged velocities.
    level : float, optional
        Truncation level of the dynamics that produced ``z``; None
        means the untruncated map.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if psi.quad_matrix is None:
        return np.zeros(z.shape[0])
    if not isinstance(model, RadialBoxModel):
        raise ValueError(
            "collision action needs a spatially uniform background"
        )
    if not psi.collision_active:
        return np.zeros(z.shape[0])
    inner = _reduced_action(
        kernel,
        model.radial_components(t),
        z,
        level,
        None,
        n_nodes,
        psi.quad_matrix,
        psi.lin_vector,
    )
    return inner * model.side**-3


def _pair_overlap(model, t):
    """Closed position integral of ``f(t, x, .) f(t, x, ..) dx``.

    Returns a constant prefactor and an optional weight in the relative
    speed.  Box families overlap to ``1 / side^3``; Gaussian position
    bumps overlap to ``(4 pi pos_var)^{-3/2}``, picking up a Gaussian
    factor in ``t |v - z|`` when the bump rides free transport.
    """
    if isinstance(model, RadialBoxModel):
        return model.side**-3, None
    if isinstance(model, GaussianProductModel):
        pref = (4.0 * math.pi * model.pos_var) ** -1.5
        if model.drift == "free_transport" and t != 0.0:
            scale = t * t / (4.0 * model.pos_var)
            return pref, lambda r: np.exp(-scale * r * r)
        return pref, None
    raise ValueError(
        "no closed position overlap for this model; use a box or "
        "Gaussian-product background"
    )


def collision_invariant_residual(
    model, kernel, psi, t=0.0, tolerance=1e-6, n_outer=24, n_nodes=400
):
    """Quadrature of the collision form of the model against ``psi``.

    Pairs the collision action with the model's own law,

        int f(t, x, z) (L psi)(z) dx dz,

    which vanishes identically for the invariant family (constants,
    momentum components, kinetic energy) because the integrand is
    antisymmetric under exchanging the tagged and partner velocities.
    The inner velocity integral is radial-exact; the outer integral
    uses a tensor Gauss-Hermite rule per mixture component, so the
    reported number is genuine cancellation between independently
    computed positive and negative parts, not a structural zero.
    """
    if psi.quad_matrix is None:
        raise ValueError("invariant residuals need a velocity observable")
    pref, radial_factor = _pair_overlap(model, t)
    components = model.radial_components(t)
    value = 0.0
    if psi.collision_active:
        for outer in components:
            nodes, weights = gauss_hermite_3d(n_outer, outer.variance)
            inner = _reduced_action(
                kernel,
                components,
                nodes,
                None,
                radial_factor,
                n_nodes,
                psi.quad_matrix,
                psi.lin_vector,
            )
            if outer.power2m == 1:
                tilt = np.sum(nodes * nodes, axis=1) / (3.0 * outer.variance)
            else:
                tilt = 1.0
            value += outer.weight * float(np.sum(weights * tilt * inner))
        value *= pref
    return ResidualReport(
        operation="collision_invariant_residual",
        lhs=value,
        rhs=0.0,
        stderr=0.0,
        tolerance=tolerance,
        details={"psi": psi.kind, "t": t, "n_outer": n_outer},
    )


def energy_flow_values(model, kernel, velocities, t=0.0, level=None, n_nodes=400):
    """Per-sample kinetic-energy exchange rate with the background.

    For each tagged velocity the closed rate of change of ``|Z|^2`` is

        2 pi c beta1 / side^3 * (2 |y| T_{1, g+1}(|y|) + T_{0, g+2}(|y|)),

    positive for particles slower than the bath and negative for faster
    ones, so a cold ensemble heats and a hot one cools.  Averaging the
    returned values over an ensemble gives the quadrature side of the
    energy-evolution check; the other side is a finite difference of
    the simulated mean energy.
    """
    velocities = np.atleast_2d(np.asarray(velocities, dtype=np.float64))
    if velocities.shape[0] == 0:
        raise ValueError("empty ensemble")
    return collision_action(
        model, kernel, Energy(), t, velocities, level=level, n_nodes=n_nodes
    )


def energy_rhs_report(model, kernel, velocities, t=0.0, level=None):
    """Mean and standard error of the energy exchange rate."""
    vals = energy_flow_values(model, kernel, velocities, t=t, level=level)
    n = len(vals)
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ResidualReport(
        operation="energy_exchange_rate",
        lhs=float(np.mean(vals)),
        rhs=0.0,
        stderr=se,
        tolerance=0.0,
        n_samples=n,
        details={"t": t, "level": level},
    )


def _clipped_segments(path, horizon):
    """Segment table of a trajectory restricted to ``[0, horizon]``."""
    if horizon > path.horizon + 1e-12:
        raise ValueError("requested window exceeds the simulated horizon")
    keep = path.times < horizon
    times = path.times[keep]
    ends = np.append(times[1:], horizon)
    lengths = np.minimum(ends, horizon) - times
    return (
        times,
        lengths,
        path.velocities[keep],
        path.levels[keep],
    )


def weak_residual(
    trajectories,
    model,
    kernel,
    psi,
    horizon=None,
    collisions=True,
    tolerance=1e-9,
    n_nodes=400,
):
    """Pathwise weak-form residual of an ensemble against ``psi``.

    For each simulated path the martingale identity

        psi(X_T, Z_T) - psi(X_0, Z_0)
            = int (Z_s . grad_x psi) ds + int (L psi)(Z_s) ds + noise

    is evaluated with the integrals computed exactly: the transport
    term telescopes for position-only observables, and the collision
    term is constant on each inter-jump segment because the background
    mixture is read once per segment.  The per-path residuals have mean
    zero, so their average is compared against ``3 stderr + tolerance``.

    Backgrounds whose velocity mixture changes over the window are
    rejected, since then the segment quadrature would no longer be
    exact.
    """
    if not trajectories:
        raise ValueError("empty ensemble")
    horizon = trajectories[0].horizon if horizon is None else float(horizon)

    needs_action = collisions and psi.collision_active
    if needs_action:
        comps0, comps1 = (model.radial_components(t) for t in (0.0, horizon))
        if comps0 is None or comps1 is None or tuple(comps0) != tuple(comps1):
            raise ValueError(
                "collision quadrature requires a radial velocity mixture that "
                f"is constant over the window, which {type(model).__name__} "
                "does not provide"
            )

    n = len(trajectories)
    delta = np.empty(n)
    transport = np.zeros(n)
    seg_z = []
    seg_len = []
    seg_lvl = []
    seg_path = []
    for i, path in enumerate(trajectories):
        x_end = path.position(horizon)
        z_end = path.velocity(horizon)
        delta[i] = float(
            psi.value(x_end[None], z_end[None])[0]
            - psi.value(path.positions[:1], path.velocities[:1])[0]
        )
        if psi.quad_matrix is None:
            # Position-only observable: the transport integral is the
            # exact increment of psi along the continuous path.
            transport[i] = delta[i]
        if needs_action:
            _, lengths, vels, levels = _clipped_segments(path, horizon)
            seg_z.append(vels)
            seg_len.append(lengths)
            seg_lvl.append(levels)
            seg_path.append(np.full(len(lengths), i))

    collision = np.zeros(n)
    if needs_action and seg_z:
        z_all = np.concatenate(seg_z)
        len_all = np.concatenate(seg_len)
        lvl_all = np.concatenate(seg_lvl)
        idx_all = np.concatenate(seg_path)
        action = np.zeros(len(z_all))
        for lvl in np.unique(lvl_all):
            sel = lvl_all == lvl
            action[sel] = collision_action(
                model, kernel, psi, 0.0, z_all[sel], level=float(lvl),
                n_nodes=n_nodes,
            )
        collision = np.bincount(
            idx_all, weights=len_all * action, minlength=n
        )

    residuals = delta - transport - collision
    stderr = float(np.std(residuals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ResidualReport(
        operation="weak_residual",
        lhs=float(np.mean(delta)),
        rhs=float(np.mean(transport + collision)),
        stderr=stderr,
        tolerance=tolerance,
        n_samples=n,
        details={"psi": psi.kind, "horizon": horizon, "collisions": collisions},
    )


def collision_symmetry_gap(
    theta,
    radii=(0.9, 1.6, 1.1, 1.9),
    n_radial=128,
    n_angle=56,
    n_phi=64,
    tolerance=1e-8,
):
    """Pre/post symmetry of the collision map at fixed polar angle.

    Integrates a compactly supported product of radial bumps over both
    incoming velocities and the azimuth,

        int psi(a, b, a', b') dphi da db
            vs  int psi(a', b', a, b) dphi da db,

    where ``(a', b') = (a + alpha, b - alpha)`` is the post-collision
    pair.  Equality expresses that the collision map composed with an
    azimuth shift is a measure-preserving involution; the two sides are
    computed from pointwise different integrands on the same grid, so
    their agreement is a real check of the change of variables.

    By isotropy the six-dimensional velocity integral collapses to the
    two speeds and the enclosed angle, leaving a four-dimensional
    product rule; the azimuth is integrated with the periodic
    trapezoidal rule, exact to spectral accuracy for the smooth bump.
    The post-collision speeds are closed forms in the azimuth, read off
    one frame of the relative velocity per pair.
    """
    r1, r2, r3, r4 = (float(r) for r in radii)
    # The incoming-pair domain must cover the supports of both argument
    # orderings; the bump factors vanish smoothly beyond their own radii.
    ra, wa = gauss_legendre(n_radial, 0.0, max(r1, r3))
    rb, wb = gauss_legendre(n_radial, 0.0, max(r2, r4))
    chi, wchi = gauss_legendre(n_angle, 0.0, math.pi)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi

    ra_g, rb_g = (g.ravel() for g in np.meshgrid(ra, rb, indexing="ij"))
    base_w = (
        (wa * 4.0 * math.pi * ra * ra)[:, None]
        * (wb * 2.0 * math.pi * rb * rb)[None, :]
    ).ravel() * wphi
    pre = smooth_bump(ra_g / r1) * smooth_bump(rb_g / r2)
    swap_pre = smooth_bump(ra_g / r3) * smooth_bump(rb_g / r4)

    s_sq = math.sin(0.5 * theta) ** 2
    cos_phi = math.sin(theta) * np.cos(phi)
    sin_phi = math.sin(theta) * np.sin(phi)

    def post_speed(u, w, frame, sign):
        # |u + sign alpha|^2 = |u|^2 + s^2 (sign 2 u.w + |w|^2)
        #     + sign sin(theta) (u.I cos(phi) + u.J sin(phi)),  s = sin(theta/2):
        # per-pair dot products broadcast over the azimuth
        flat = np.sum(u * u, axis=1) + s_sq * np.sum((sign * 2.0 * u + w) * w, axis=1)
        ui = sign * np.sum(u * frame.i_axis, axis=1)
        uj = sign * np.sum(u * frame.j_axis, axis=1)
        sq = flat[:, None] + ui[:, None] * cos_phi + uj[:, None] * sin_phi
        return np.sqrt(np.maximum(sq, 0.0))

    a = np.zeros((ra_g.size, 3))
    a[:, 2] = ra_g
    lhs = 0.0
    rhs = 0.0
    for k in range(n_angle):
        c, s = math.cos(chi[k]), math.sin(chi[k])
        b = np.zeros((ra_g.size, 3))
        b[:, 0] = rb_g * s
        b[:, 2] = rb_g * c
        w = b - a
        frame = orthonormal_frame(w)
        post_a = post_speed(a, w, frame, 1.0)
        post_b = post_speed(b, w, frame, -1.0)
        post_term = smooth_bump(post_a / r3) * smooth_bump(post_b / r4)
        swap_post = smooth_bump(post_a / r1) * smooth_bump(post_b / r2)
        w_pair = base_w * (wchi[k] * s)
        lhs += float(np.dot(w_pair * pre, post_term.sum(axis=1)))
        rhs += float(np.dot(w_pair * swap_pre, swap_post.sum(axis=1)))
    return ResidualReport(
        operation="collision_symmetry",
        lhs=lhs,
        rhs=rhs,
        stderr=0.0,
        tolerance=tolerance,
        details={"theta": theta, "radii": list(radii)},
    )


def gaussian_kl(var_num, var_den):
    """Closed relative entropy of centred isotropic Gaussians in 3-d."""
    if var_num <= 0.0 or var_den <= 0.0:
        raise ValueError("variances must be positive")
    ratio = var_num / var_den
    return 1.5 * (ratio - 1.0 - math.log(ratio))


def entropy_bias_budget(n, relative_bandwidth):
    """Declared bias bound of the kernel-density entropy estimate.

    The leave-one-out plug-in estimator has two systematic error
    sources: oversmoothing of order ``eta^4`` (the ``eta^2`` term
    integrates to zero against the sampled law) and the nonlinearity of
    the logarithm acting on the finite-sample density noise, of order
    ``1 / (n eta^3)``.  The constants were calibrated on centred
    Gaussians over ``n`` in 1000..4000 and ``eta`` in 0.25..0.5, where
    the measured bias never exceeded 2.8/(n eta^3) + 0.7 eta^4; the
    declared budget keeps a factor ~1.6 margin on top.  ``eta`` is the
    bandwidth in units of the per-axis sample deviation.
    """
    if n < 2 or relative_bandwidth <= 0.0:
        raise ValueError("need n >= 2 and a positive bandwidth")
    eta = float(relative_bandwidth)
    return 4.5 / (n * eta**3) + 1.1 * eta**4


@dataclass
class EntropyReport:
    """Kernel-density relative entropy with its declared error budget."""

    value: float
    stderr: float
    bias_budget: float
    bandwidth: float
    n_samples: int
    n_excluded: int

    @property
    def consistent_with_zero(self):
        return abs(self.value) <= self.bias_budget + 3.0 * self.stderr

    def as_dict(self):
        return {
            "operation": "relative_entropy",
            "value": self.value,
            "stderr": self.stderr,
            "bias_budget": self.bias_budget,
            "bandwidth": self.bandwidth,
            "n_samples": self.n_samples,
            "n_excluded": self.n_excluded,
        }


def relative_entropy_kde(velocities, reference_variance, bandwidth=None):
    """Relative entropy of a velocity sample against a Maxwellian.

    Estimates ``int g ln(g / f)`` with ``g`` replaced by a leave-one-out
    Gaussian kernel density and ``f`` the centred isotropic Gaussian of
    the given variance.  The position factor of box ensembles is exact
    (uniform against uniform), so the velocity term is the whole
    divergence there.

    The default bandwidth shrinks like ``n^(-1/7)`` from the per-axis
    sample deviation, balancing the two bias terms of the declared
    budget.  Points where the reference vanishes would be excluded and
    counted; a Gaussian reference never excludes any.
    """
    v = np.atleast_2d(np.asarray(velocities, dtype=np.float64))
    n = v.shape[0]
    if n < 10:
        raise ValueError("need at least 10 samples")
    if reference_variance <= 0.0:
        raise ValueError("reference variance must be positive")
    sample_std = float(np.sqrt(np.mean(np.var(v, axis=0, ddof=1))))
    if bandwidth is None:
        bandwidth = sample_std * n ** (-1.0 / 7.0)
    h = float(bandwidth)
    if h <= 0.0:
        raise ValueError("bandwidth must be positive")

    log_ref = (
        -0.5 * np.sum(v * v, axis=1) / reference_variance
        - 1.5 * math.log(2.0 * math.pi * reference_variance)
    )
    n_excluded = int(np.sum(~np.isfinite(log_ref)))

    log_norm = math.log(n - 1) + 1.5 * math.log(2.0 * math.pi * h * h)
    log_kde = np.empty(n)
    for block in pair_blocks(n, n):
        _, expo = pair_sq_distances(v[block], v)
        expo *= -0.5
        expo /= h * h
        rows = np.arange(n)[block]
        expo[rows - block.start, rows] = -np.inf
        log_kde[block] = logsumexp(expo, axis=1) - log_norm

    terms = log_kde - log_ref
    value = float(np.mean(terms))
    stderr = float(np.std(terms, ddof=1) / math.sqrt(n))
    budget = entropy_bias_budget(n, h / sample_std)
    return EntropyReport(
        value=value,
        stderr=stderr,
        bias_budget=budget,
        bandwidth=h,
        n_samples=n,
        n_excluded=n_excluded,
    )


@dataclass
class ExitReport:
    """Empirical ball-exit probabilities with their pathwise bound."""

    thresholds: np.ndarray
    probabilities: np.ndarray
    markov_bounds: np.ndarray
    mean_sup: float
    n_samples: int

    @property
    def monotone(self):
        """Exit gets rarer as the ball grows."""
        return bool(np.all(np.diff(self.probabilities) <= 0.0))

    @property
    def bounded(self):
        """Each exit probability respects E[sup |Z|] / j."""
        return bool(
            np.all(self.probabilities <= self.markov_bounds + 1e-12)
        )

    def as_dict(self):
        return {
            "operation": "exit_statistics",
            "thresholds": self.thresholds.tolist(),
            "probabilities": self.probabilities.tolist(),
            "markov_bounds": self.markov_bounds.tolist(),
            "mean_sup": self.mean_sup,
            "n_samples": self.n_samples,
            "verdict": "PASS" if self.monotone and self.bounded else "FAIL",
        }


def exit_statistics(sup_speeds, thresholds):
    """Exit probabilities of the running speed supremum.

    ``P(sup |Z| > j)`` estimated per threshold from pathwise suprema,
    together with the Markov bound ``E[sup |Z|] / j`` computed from the
    same sample, so the bound holds pathwise term by term.
    """
    sup_speeds = np.asarray(sup_speeds, dtype=np.float64).ravel()
    if len(sup_speeds) == 0:
        raise ValueError("empty ensemble")
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64).ravel())
    if np.any(thresholds <= 0.0):
        raise ValueError("thresholds must be positive")
    probs = np.array([np.mean(sup_speeds > j) for j in thresholds])
    mean_sup = float(np.mean(sup_speeds))
    bounds = mean_sup / thresholds
    return ExitReport(
        thresholds=thresholds,
        probabilities=probs,
        markov_bounds=bounds,
        mean_sup=mean_sup,
        n_samples=len(sup_speeds),
    )


@dataclass
class MomentTable:
    """Ensemble mean velocity and energy on an output grid.

    Drift scores are paired per path against time zero, so conserved
    moments produce scores of order one regardless of the spread of the
    initial law.
    """

    times: np.ndarray
    mean_velocity: np.ndarray
    se_velocity: np.ndarray
    mean_energy: np.ndarray
    se_energy: np.ndarray
    velocity_drift: np.ndarray
    energy_drift: np.ndarray
    n_samples: int

    def conserved(self, band=4.0):
        """Whether no drift score exceeds the band."""
        return bool(
            np.all(np.abs(self.velocity_drift) <= band)
            and np.all(np.abs(self.energy_drift) <= band)
        )

    def as_dict(self):
        return {
            "operation": "moment_report",
            "times": self.times.tolist(),
            "mean_velocity": self.mean_velocity.tolist(),
            "se_velocity": self.se_velocity.tolist(),
            "mean_energy": self.mean_energy.tolist(),
            "se_energy": self.se_energy.tolist(),
            "velocity_drift": self.velocity_drift.tolist(),
            "energy_drift": self.energy_drift.tolist(),
            "n_samples": self.n_samples,
        }


def moment_report(trajectories, times):
    """First and second velocity moments of an ensemble over time.

    Parameters
    ----------
    trajectories : sequence of Trajectory
    times : array_like
        Output grid inside the common horizon.
    """
    if not trajectories:
        raise ValueError("empty ensemble")
    times = np.asarray(times, dtype=np.float64).ravel()
    n = len(trajectories)
    vel = np.empty((n, len(times), 3))
    for i, path in enumerate(trajectories):
        vel[i] = path.velocity(times)
    energy = np.sum(vel * vel, axis=2)

    mean_v = vel.mean(axis=0)
    se_v = vel.std(axis=0, ddof=1) / math.sqrt(n)
    mean_e = energy.mean(axis=0)
    se_e = energy.std(axis=0, ddof=1) / math.sqrt(n)

    dv = vel - vel[:, :1, :]
    de = energy - energy[:, :1]
    se_dv = dv.std(axis=0, ddof=1) / math.sqrt(n)
    se_de = de.std(axis=0, ddof=1) / math.sqrt(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        v_drift = np.where(se_dv > 0.0, dv.mean(axis=0) / se_dv, 0.0)
        e_drift = np.where(se_de > 0.0, de.mean(axis=0) / se_de, 0.0)
    return MomentTable(
        times=times,
        mean_velocity=mean_v,
        se_velocity=se_v,
        mean_energy=mean_e,
        se_energy=se_e,
        velocity_drift=v_drift,
        energy_drift=e_drift,
        n_samples=n,
    )
