"""Interacting N-particle approximation of the tagged jump process.

Each particle free-streams in a periodic box and collides against the
mollified empirical density of the other particles.  Writing
``K(d) = (2 pi h_x^2)^{-3/2} exp(-|d|^2 / 2 h_x^2)`` for the spatial
kernel on minimum-image displacements, particle ``i`` suffers collision
candidates at rate

    2 pi |Q| c / (N - 1) * sum_{j != i} K(x_i - x_j) w_ij,

mirroring the tagged process whose intensity integrates the scattering
cross section against a joint density.  In the one-sided mode the
partner velocity is mollified too (``v_j + h_v xi`` with standard
normal ``xi``) and only ``v_i`` is kicked, which is the direct
mean-field reading of the single-particle dynamics.  The symmetric
mode kicks both partners by ``+alpha`` and ``-alpha`` computed from
their actual velocities, so momentum is conserved identically and the
elastic identity ``(alpha, v_i - v_j) + |alpha|^2 = 0`` conserves the
kinetic energy as well; its pair rate carries a factor 1/2 so each
particle collides at the same frequency in both modes.

Time is advanced in windows short enough that every per-particle
candidate probability stays at or below 0.1; a window free-streams
first and then draws candidates.  Candidate draws come from the state
at the window start, while acceptance and the kick itself are applied
sequentially in ascending particle order on the current velocities,
so simultaneous candidates never break conservation.  The windowed
Bernoulli draw makes the scheme first order in the window length,
which is the standard trade for interacting ensembles: the empirical
density moves at every collision, so the exact event-driven majorant
of the single-particle engine would have to be rebuilt constantly.

Candidate selection is exact thinning within the window: partners are
proposed with probability proportional to ``K(x_i - x_j) w_ij`` and
the residual acceptance is the cross-section ratio against its
envelope, evaluated on the same frozen snapshot the rates came from.
The pairwise rate rows cost O(N^2) per window, computed in bounded
memory.  Positions and velocities enter them as coordinate planes
(:func:`densities.pair_sq_distances`), one contiguous ``(rows, N)``
array per coordinate, which numpy reduces about three times faster
than ``(rows, N, 3)`` arrays summed over their last axis.

Soft potentials are rejected: their cross section is unbounded in the
relative speed and admits no candidate envelope of this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    MollifiedEmpiricalModel,
    maxwell_abs_moment,
    pair_blocks,
    pair_kernel,
    pair_sq_distances,
    wrap_position,
)
from .engine import check_envelope
from .geometry import deflection_alpha
from .kernels import (
    angular_mass,
    angular_weighted_mass,
    sample_theta,
    sigma,
    sigma_weight,
)

__all__ = [
    "ONE_SIDED",
    "SYMMETRIC_PAIR",
    "ParticleEnsemble",
    "default_bandwidths",
    "maxwellian_ensemble",
    "step_ensemble",
    "evolve_ensemble",
    "ensemble_energy_rate",
]

ONE_SIDED = "one_sided"
SYMMETRIC_PAIR = "symmetric_pair"
_MAX_WINDOW_PROBABILITY = 0.1


@dataclass
class ParticleEnsemble:
    """Positions and velocities of N particles in a periodic box."""

    positions: np.ndarray
    velocities: np.ndarray
    h_x: float
    h_v: float
    side: float = 1.0
    mode: str = ONE_SIDED
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=np.float64)
        self.velocities = np.array(self.velocities, dtype=np.float64)
        if (
            self.positions.ndim != 2
            or self.positions.shape[1] != 3
            or self.positions.shape != self.velocities.shape
        ):
            raise ValueError("positions and velocities must both be (N, 3)")
        if len(self.positions) < 2:
            raise ValueError("an ensemble needs at least two particles")
        if not (self.h_x > 0.0 and self.h_v > 0.0):
            raise ValueError("bandwidths must be positive")
        if not self.side > 0.0:
            raise ValueError("box side must be positive")
        if self.mode not in (ONE_SIDED, SYMMETRIC_PAIR):
            raise ValueError(f"unknown coupling mode {self.mode!r}")
        if not (
            np.all(np.isfinite(self.positions))
            and np.all(np.isfinite(self.velocities))
        ):
            raise ValueError("particle states must be finite")
        self.positions = wrap_position(self.positions, self.side)

    @property
    def n(self):
        return len(self.positions)

    def copy(self):
        return ParticleEnsemble(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            h_x=self.h_x,
            h_v=self.h_v,
            side=self.side,
            mode=self.mode,
            time=self.time,
        )

    def momentum(self):
        """Total momentum ``sum_i v_i``."""
        return self.velocities.sum(axis=0)

    def energy(self):
        """Total kinetic energy ``sum_i |v_i|^2``."""
        return float((self.velocities**2).sum())

    def to_empirical_model(self):
        """Mollified density view of the current snapshot."""
        return MollifiedEmpiricalModel(
            self.positions,
            self.velocities,
            h_x=self.h_x,
            h_v=self.h_v,
            side=self.side,
        )


def default_bandwidths(n, side=1.0, vel_var=1.0):
    """Default mollifier widths, shrinking like ``N^(-1/7)``.

    One scale per coordinate: the box side for positions and the
    thermal speed for velocities.  The spatial width carries an extra
    factor 1/4 so that ensembles of a few hundred particles or more
    stay within the minimum-image accuracy limit of the empirical
    density view (spatial width at most an eighth of the box).  No
    optimality claim.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    h = float(n) ** (-1.0 / 7.0)
    return 0.25 * side * h, math.sqrt(vel_var) * h


def maxwellian_ensemble(
    n, rng, side=1.0, vel_var=1.0, h_x=None, h_v=None, mode=ONE_SIDED
):
    """Uniform positions and Maxwellian velocities."""
    hx0, hv0 = default_bandwidths(n, side=side, vel_var=vel_var)
    return ParticleEnsemble(
        positions=rng.uniform(0.0, side, (n, 3)),
        velocities=rng.normal(0.0, math.sqrt(vel_var), (n, 3)),
        h_x=hx0 if h_x is None else h_x,
        h_v=hv0 if h_v is None else h_v,
        side=side,
        mode=mode,
    )


def _pair_rate(ens, spec, mass):
    """Pair-rate factor ``2 pi mass c / (N - 1)`` of the ensemble's mode."""
    prefactor = 2.0 * math.pi * mass * spec.c / (ens.n - 1)
    if ens.mode == SYMMETRIC_PAIR:
        # halve the pair rate: both partners move per event, so each
        # particle keeps the one-sided collision frequency
        prefactor *= 0.5
    return prefactor


def _pair_weights(pos, vel, rows, h_x, side, spec, shift):
    """Pair weights ``K(x_i - x_j) W(|v_i - v_j| + shift)`` of the given rows.

    ``rows`` selects the particles ``i`` (a slice or index array); the
    self-pairs are zero.
    """
    _, weights = pair_kernel(pos[rows], pos, h_x**2, side)
    # W = 1 at gamma = 0; the velocity gaps would cost half again
    if spec.gamma != 0.0:
        _, gaps = pair_sq_distances(vel[rows], vel)
        np.sqrt(gaps, out=gaps)
        gaps += shift
        weights *= sigma_weight(spec, gaps)
    index = np.arange(len(pos))[rows]
    weights[np.arange(len(index)), index] = 0.0
    return weights


def _sample_xi(rng, plain_weight, tilt_weight):
    """Standard normal 3-vector, tilted by its own length.

    Draws from the mixture ``(plain_weight + |xi|) N(xi)`` normalized,
    used when the candidate envelope is linear in the mollifier shift.
    """
    if rng.random() * (plain_weight + tilt_weight) < plain_weight:
        return rng.normal(size=3)
    # |xi|-weighted normal: radius density r^3 exp(-r^2/2)
    radius = math.sqrt(rng.gamma(2.0, 2.0))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return radius * direction


def step_ensemble(ens, spec, dt, rng):
    """Advance the ensemble by ``dt`` and return the new state.

    The window is subdivided so every particle's candidate probability
    per sub-window stays at or below 0.1, using the position-free rate
    envelope with the spatial kernel at its peak.
    """
    if spec.gamma < 0.0:
        raise ValueError("soft potentials admit no candidate envelope")
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    out = ens.copy()
    n = out.n
    prefactor = _pair_rate(out, spec, angular_mass(spec))
    xi_mean = maxwell_abs_moment(1.0, 1)
    # one-sided rows average W over the partner's mollifier shift h_v xi
    shift = out.h_v * xi_mean if out.mode == ONE_SIDED else 0.0
    pair = (out.h_x, out.side, spec, shift)

    remaining = float(dt)
    while remaining > 0.0:
        pos_frozen = out.positions.copy()
        vel_frozen = out.velocities.copy()
        rates = prefactor * np.concatenate([
            _pair_weights(pos_frozen, vel_frozen, rows, *pair).sum(axis=1)
            for rows in pair_blocks(n, n)
        ])
        peak = rates.max()
        if peak <= 0.0:
            sub = remaining
        else:
            sub = min(remaining, _MAX_WINDOW_PROBABILITY / peak)
        out.positions = wrap_position(
            out.positions + sub * out.velocities, out.side
        )
        out.time += sub
        remaining -= sub

        fires = np.nonzero(rng.random(n) < rates * sub)[0]
        for block in pair_blocks(len(fires), n):
            # candidate law entirely from the frozen snapshot
            rows = _pair_weights(pos_frozen, vel_frozen, fires[block], *pair)
            for i, row in zip(fires[block], rows):
                total = row.sum()
                if total <= 0.0:
                    continue
                j = int(np.searchsorted(np.cumsum(row), rng.random() * total))
                gap = float(np.linalg.norm(vel_frozen[j] - vel_frozen[i]))
                v_cand, speed = vel_frozen[j], gap
                if out.mode == ONE_SIDED:
                    if spec.gamma == 0.0:
                        xi = rng.normal(size=3)
                    else:
                        # the envelope c W(gap + h_v |xi|) is affine in
                        # |xi|; drawing xi in proportion to it makes its
                        # mean the pair weight W(gap + h_v E|xi|)
                        xi = _sample_xi(
                            rng, sigma_weight(spec, gap), out.h_v * xi_mean
                        )
                    v_cand = v_cand + out.h_v * xi
                    speed = gap + out.h_v * float(np.linalg.norm(xi))
                envelope = spec.c * sigma_weight(spec, speed)

                rel_speed = float(np.linalg.norm(v_cand - vel_frozen[i]))
                intensity = sigma(spec, rel_speed)
                # the ensemble draws at no truncation level
                check_envelope(intensity, envelope, out.time, None)
                theta = float(sample_theta(spec, rng.random()))
                phi = rng.uniform(0.0, 2.0 * math.pi)
                if rng.random() * envelope >= intensity:
                    continue

                # write-back on the current state, in ascending fire
                # order; the pair kick uses the partners' present
                # velocities so the elastic exchange conserves exactly
                # even under same-window recollisions
                kick = deflection_alpha(
                    out.velocities[i],
                    v_cand if out.mode == ONE_SIDED else out.velocities[j],
                    theta,
                    phi,
                )
                out.velocities[i] = out.velocities[i] + kick
                if out.mode == SYMMETRIC_PAIR:
                    out.velocities[j] = out.velocities[j] - kick
    return out


def evolve_ensemble(ens, spec, horizon, dt, rng, snapshot_times=None):
    """Run to ``horizon`` in steps of ``dt``, collecting snapshots.

    Returns the final ensemble and a list of ``(time, ensemble)``
    copies, one per distinct requested time in ``(ens.time, horizon]``
    (hit exactly: the stepper is called with whatever remains until the
    next snapshot).
    """
    if not ens.time <= horizon < math.inf:
        raise ValueError("horizon must be finite, not before the ensemble time")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    wanted = {t for t in (snapshot_times or []) if ens.time < t <= horizon}
    snapshots = []
    current = ens
    for mark in sorted(wanted | {horizon}):
        while current.time < mark - 1e-12:
            step = min(dt, mark - current.time)
            current = step_ensemble(current, spec, step, rng)
        current.time = mark
        if mark in wanted:
            snapshots.append((mark, current.copy()))
    return current, snapshots


def ensemble_energy_rate(ens, spec):
    """Expected instantaneous drift of the total kinetic energy.

    Averaging the elastic energy exchange over the scattering angles
    turns each candidate's energy increment into
    ``sin^2(theta/2) (|v|^2 - |z|^2)``; integrating against the
    candidate intensity gives, per particle,

        -2 pi beta c / (N - 1) sum_j K(x_i - x_j) (|v_i|^2 - e_j)

    with ``beta = int sin^2(theta/2) Q(dtheta)`` and ``e_j`` the mean
    squared candidate speed of partner ``j`` (``|v_j|^2 + 3 h_v^2``
    when partner velocities are mollified, ``|v_j|^2`` otherwise).
    Only the flat cross section admits this closed form; other
    exponents raise.  In the symmetric mode the summand is
    antisymmetric, so the total vanishes: energy is conserved.
    """
    if spec.gamma != 0.0:
        raise ValueError("closed-form energy rate requires gamma = 0")
    prefactor = _pair_rate(ens, spec, angular_weighted_mass(spec, "sin2_half"))
    shift = 3.0 * ens.h_v**2 if ens.mode == ONE_SIDED else 0.0
    energies = (ens.velocities**2).sum(axis=1)

    total = 0.0
    for rows in pair_blocks(ens.n, ens.n):
        # W = 1: the flat cross section is its own weight
        kern = _pair_weights(
            ens.positions, ens.velocities, rows, ens.h_x, ens.side, spec, 0.0
        )
        gaps = energies[rows, np.newaxis] - (energies + shift)[np.newaxis]
        total += float((kern * gaps).sum())
    return -prefactor * total
