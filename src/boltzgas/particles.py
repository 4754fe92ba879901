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
first and then draws candidates.  The windowed Bernoulli draw makes
the scheme first order in the window length, which is the standard
trade for interacting ensembles: the empirical density moves at every
collision, so the exact event-driven majorant of the single-particle
engine would have to be rebuilt constantly.

The fired particles of a window are handled as one array pass per
block of rows, and the result is the one of a loop that takes them one
at a time in ascending order.  Candidates come from the frozen state
at the window start, so only the stream order ties the rows together.
Rows of zero total draw nothing.  In the symmetric mode every row
takes exactly four uniforms (partner, polar angle, azimuth,
acceptance), so one ``(rows, 4)`` draw returns the loop's numbers; the
one-sided mode's partner shift ``xi`` takes a random number of normal
and gamma variates, so it draws row by row.  Envelopes, intensities,
the envelope check and the acceptance are then array operations.  The
kicks act on the current velocities, so that same-window recollisions
conserve momentum and energy exactly; they are applied in waves, each
event one wave after the last earlier event that shares a particle
with it.  Events of one wave touch disjoint particles, and every event
sees the velocities its predecessors left, which is the sequential
write-back.  One-sided events kick distinct particles against frozen
partners and form a single wave.  One rounding differs from the loop:
symmetric power-law angles come from one array call, and numpy's array
power can differ from its scalar power in the last bit.

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
from dataclasses import dataclass

import numpy as np

from .densities import (
    MollifiedEmpiricalModel,
    maxwell_abs_moment,
    pair_kernel,
    pair_sq_distances,
    wrap_position,
)
from .engine import check_envelope
from .geometry import deflection_alpha, row_norms
from .kernels import (
    angular_mass,
    angular_weighted_mass,
    sample_theta,
    sigma,
    sigma_weight,
)
from .quadrature import pair_blocks

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
# mean length of the standard normal mollifier shift xi, E|xi|
_XI_MEAN = maxwell_abs_moment(1.0, 1)


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
        """An independent copy, without the checks of construction.

        Positions are folded into the box again, as construction folds
        them, so a coordinate that rounded up to ``side`` comes back as 0.
        """
        dup = object.__new__(type(self))
        dup.__dict__.update(
            self.__dict__,
            positions=wrap_position(self.positions, self.side),
            velocities=self.velocities.copy(),
        )
        return dup

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


def _one_sided_draws(rng, spec, vel, fired, cums, totals, h_v):
    """Per-row draws of the one-sided mode, in the order of the stream.

    ``xi`` takes a random number of normal and gamma variates, so each
    row draws in turn: partner, ``xi``, angle, azimuth, acceptance.
    """
    k = len(fired)
    uniforms = np.empty((k, 4))
    partners = np.empty(k, dtype=np.intp)
    xis = np.empty((k, 3))
    thetas = np.empty(k)
    for r, i in enumerate(fired):
        uniforms[r, 0] = rng.random()
        j = partners[r] = np.searchsorted(cums[r], uniforms[r, 0] * totals[r])
        if spec.gamma == 0.0:
            xis[r] = rng.normal(size=3)
        else:
            # the envelope c W(gap + h_v |xi|) is affine in |xi|; drawing
            # xi in proportion to it makes its mean the pair weight
            # W(gap + h_v E|xi|)
            gap = float(np.linalg.norm(vel[j] - vel[i]))
            xis[r] = _sample_xi(rng, sigma_weight(spec, gap), h_v * _XI_MEAN)
        uniforms[r, 1:] = rng.random(3)
        # a scalar call: the array power can differ in the last bit
        thetas[r] = sample_theta(spec, uniforms[r, 1])
    return partners, xis, thetas, uniforms


def _waves(i, j):
    """Split pair events into waves that share no particle.

    Events keep their order; each goes one wave after the last earlier
    event that shares a particle with it, so applying the waves in turn
    reproduces the one-by-one write-back.
    """
    pairs = list(zip(i.tolist(), j.tolist()))
    if len({p for pair in pairs for p in pair}) == 2 * len(pairs):
        return [slice(None)]
    last = {}
    wave = []
    for a, b in pairs:
        w = max(last.get(a, -1), last.get(b, -1)) + 1
        last[a] = last[b] = w
        wave.append(w)
    wave = np.array(wave)
    return [np.nonzero(wave == w)[0] for w in range(wave.max() + 1)]


def _fire(out, spec, rng, vel, fired, rows):
    """Draw, thin and apply the candidates of one block of fired particles.

    ``rows`` are the fired particles' pair weights on the frozen
    velocities ``vel``; rows of zero total draw nothing.
    """
    totals = rows.sum(axis=1)
    live = totals > 0.0
    if not live.all():
        fired, rows, totals = fired[live], rows[live], totals[live]
    if len(fired) == 0:
        return
    cums = np.cumsum(rows, axis=1)
    if out.mode == SYMMETRIC_PAIR:
        # four uniforms per row: partner, angle, azimuth, acceptance
        uniforms = rng.random((len(fired), 4))
        # the count of cumulative weights below u * total is the
        # left-side searchsorted of the loop
        partners = np.count_nonzero(
            cums < (uniforms[:, 0] * totals)[:, np.newaxis], axis=1
        )
        thetas = sample_theta(spec, uniforms[:, 1])
    else:
        partners, xis, thetas, uniforms = _one_sided_draws(
            rng, spec, vel, fired, cums, totals, out.h_v
        )
    v_fired, v_cand = vel[fired], vel[partners]
    speed = rel_speed = row_norms(v_cand - v_fired)
    if out.mode == ONE_SIDED:
        v_cand = v_cand + out.h_v * xis
        speed = speed + out.h_v * row_norms(xis)
        rel_speed = row_norms(v_cand - v_fired)
    envelope = spec.c * sigma_weight(spec, speed)
    intensity = sigma(spec, rel_speed)
    # the ensemble draws at no truncation level
    check_envelope(intensity, envelope, out.time, None)
    accept = uniforms[:, 3] * envelope < intensity
    if not accept.any():
        return
    i, j = fired[accept], partners[accept]
    thetas, phis = thetas[accept], 2.0 * math.pi * uniforms[accept, 2]
    if out.mode == ONE_SIDED:
        # distinct particles against frozen partners: one wave
        out.velocities[i] += deflection_alpha(
            out.velocities[i], v_cand[accept], thetas, phis
        )
        return
    for wave in _waves(i, j):
        a, b = i[wave], j[wave]
        kick = deflection_alpha(
            out.velocities[a], out.velocities[b], thetas[wave], phis[wave]
        )
        out.velocities[a] += kick
        out.velocities[b] -= kick


def step_ensemble(ens, spec, dt, rng):
    """Advance the ensemble by ``dt`` and return the new state.

    The window is subdivided so every particle's candidate probability
    per sub-window stays at or below 0.1: each sub-window is capped by
    the largest actual rate on the frozen snapshot at its start.
    """
    if spec.gamma < 0.0:
        raise ValueError("soft potentials admit no candidate envelope")
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    out = ens.copy()
    n = out.n
    prefactor = _pair_rate(out, spec, angular_mass(spec))
    # one-sided rows average W over the partner's mollifier shift h_v xi
    shift = out.h_v * _XI_MEAN if out.mode == ONE_SIDED else 0.0
    pair = (out.h_x, out.side, spec, shift)

    remaining = float(dt)
    while remaining > 0.0:
        # the frozen snapshot of the candidate law; positions are rebound
        # below, never written in place, so only velocities need a copy
        pos, vel = out.positions, out.velocities.copy()
        rates = prefactor * np.concatenate([
            _pair_weights(pos, vel, rows, *pair).sum(axis=1)
            for rows in pair_blocks(n, n)
        ])
        peak = rates.max()
        if peak <= 0.0:
            sub = remaining
        else:
            sub = min(remaining, _MAX_WINDOW_PROBABILITY / peak)
        out.positions = wrap_position(pos + sub * vel, out.side)
        out.time += sub
        remaining -= sub

        fires = np.nonzero(rng.random(n) < rates * sub)[0]
        for block in pair_blocks(len(fires), n):
            fired = fires[block]
            rows = _pair_weights(pos, vel, fired, *pair)
            _fire(out, spec, rng, vel, fired, rows)
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
