"""Picard iteration for the velocity-jump process on frozen noise.

All iterates share one realization of the driving randomness: the
engine's candidates at a fixed truncation level, drawn in the engine's
blocks, each atom carrying a proposal velocity, a scattering angle
pair, and an absolute acceptance threshold.  Every
iterate is an engine :class:`~boltzgas.engine.Trajectory` carrying the
per-atom state the next pass reads.  Iterate zero is the free flight
``(X_0 + t Z_0, Z_0)``, which is exactly the pass that accepts no atom;
iterate ``k + 1`` walks the atom list in time order and, at each atom,
evaluates both the acceptance test and the deflection on iterate
``k``'s state:

    accept  iff  r < sigma(|project_j(Z^k_{s-}) - v|) f(s, X^k_s | v),
    kick    =    alpha(project_j(Z^k_{s-}), v, theta, psi),

with the engine's strict thinning rule.  So every pass is an explicit
functional of the previous one, and the fixed point solves the jump
equation driven by that same noise.  Since no atom reads the current
pass, decisions, frame turns and kicks are computed for all atoms at
once, from one projection of iterate ``k``'s velocities: the
intensities are one :func:`~boltzgas.engine.jump_intensity` call, the
engine's own, with one time per atom, and every atom is checked against
its envelope bound.  Only the segment velocities (running sums of the
kicks) and positions (running sums of the displacements) are
sequential, and ``np.cumsum`` adds them in time order.

The azimuthal angle ``psi`` is the frozen atom angle plus an
accumulated frame rotation.  Between consecutive passes the scattering
frame attached to the relative velocity turns, and the accumulated
rotation keeps the two frames aligned, which is what makes consecutive
kicks differ by at most ``2 theta`` times the state difference.  The
rotation increment at each atom aligns the frame built on the previous
base state with the frame built on the current one.

Distances between iterates are pathwise uniform: the supremum over
``[0, T]`` of ``|X|`` differences plus the supremum of ``|Z|``
differences, both attained on the union of the segment breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    Envelope, SimConfig, Trajectory, check_envelope, initial_state, jump_intensity
)
from .geometry import deflection_alpha, tanaka_rotation
from .rng import stream
from .truncation import project_j

__all__ = [
    "FrozenNoise",
    "PicardPath",
    "frozen_noise",
    "initial_iterate",
    "picard_pass",
    "picard_iterates",
    "supremum_distance",
    "ContractionReport",
    "contraction_profile",
]

# one-sided 95% normal quantile: a step counts as an increase only past it
_INCREASE_Z = 1.645


@dataclass
class FrozenNoise:
    """One realization of the driving randomness, reused by every pass.

    ``thresholds`` are absolute: atom ``a`` is accepted by a pass
    exactly when its jump intensity at that atom exceeds
    ``thresholds[a]``.  They were drawn uniformly under the dominating
    envelope ``c F W(v)``, so the construction stays exact as long as
    every intensity respects that envelope.
    """

    times: np.ndarray
    velocities: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    thresholds: np.ndarray
    bounds: np.ndarray
    x0: np.ndarray
    z0: np.ndarray
    level: float
    horizon: float

    @property
    def n_atoms(self):
        return len(self.times)


@dataclass
class PicardPath(Trajectory):
    """One iterate: an engine path plus the per-atom state a pass reads.

    ``accepted[a]`` is the decision at atom ``a``, ``z_left[a]`` and
    ``x_at[a]`` the iterate's velocity and position just before it,
    ``psi[a]`` its aligned azimuth and ``base_z_left[a]`` the previous
    iterate's ``z_left[a]``, on which the decision and the kick were
    evaluated.  Every segment carries the noise's truncation level.
    """

    accepted: np.ndarray
    z_left: np.ndarray
    x_at: np.ndarray
    psi: np.ndarray
    base_z_left: np.ndarray

    # read-only aliases: the benchmark harness reads iterates by these names
    seg_times = property(lambda self: self.times)
    seg_positions = property(lambda self: self.positions)
    seg_velocities = property(lambda self: self.velocities)


def frozen_noise(model, kernel, level, horizon, rng, x0=None, z0=None):
    """Draw the complete atom list for one realization.

    The atoms are the engine's candidates at the fixed ``level``, the
    block draw of :meth:`~boltzgas.engine.Envelope.candidates`: each
    with a velocity from the weighted marginal, an angle pair and an
    acceptance threshold uniform under the envelope.  On the same
    ``rng`` they are the candidate records of
    ``simulate(..., SimConfig(horizon, level, escalate=False), rng)``.
    """
    return _frozen_noise(Envelope(model, kernel, horizon), level, rng, x0, z0)


def _frozen_noise(envelope, level, rng, x0, z0):
    """Atom list of one realization on a prebuilt envelope."""
    if not 1.0 <= level < math.inf:
        raise ValueError("truncation level must be finite and >= 1")
    x0, z0 = initial_state(envelope.model, rng, x0, z0)
    # times, velocities, thetas, phis, thresholds and bounds, in order
    atoms = envelope.candidates(0.0, level, rng, SimConfig.max_events)[:6]
    return FrozenNoise(*atoms, x0, z0, level, envelope.horizon)


def initial_iterate(noise):
    """Iterate zero: the free flight ``(X_0 + t Z_0, Z_0)``, no atom accepted."""
    n = noise.n_atoms
    return _assemble(
        noise,
        np.zeros(n, dtype=bool),
        np.empty((0, 3)),
        noise.phis.copy(),
        np.tile(noise.z0, (n, 1)),
    )


def picard_pass(model, kernel, noise, prev):
    """Apply the Picard map once: build the next iterate from ``prev``."""
    j = noise.level
    s = noise.times
    v = noise.velocities
    base_now = prev.z_left
    z_proj = project_j(base_now, j)

    # an unchanged base keeps its frame bit for bit; tanaka_rotation
    # would return roundoff instead of an exact zero turn
    psi = prev.psi.copy()
    moved = np.any(base_now != prev.base_z_left, axis=1)
    old_base = project_j(prev.base_z_left[moved], j)
    psi[moved] += tanaka_rotation(old_base, v[moved], z_proj[moved], v[moved])

    intensity = jump_intensity(model, kernel, s, prev.x_at, z_proj, v)
    check_envelope(intensity, noise.bounds, s, j)
    accepted = noise.thresholds < intensity
    kicks = deflection_alpha(
        z_proj[accepted], v[accepted], noise.thetas[accepted], psi[accepted]
    )
    return _assemble(noise, accepted, kicks, psi, base_now.copy())


def _assemble(noise, accepted, kicks, psi, base_z_left):
    """The iterate that jumps by ``kicks`` at the ``accepted`` atoms."""
    s = noise.times
    # the only sequential work: running sums in time order
    times = np.concatenate([[0.0], s[accepted]])
    velocities = np.cumsum(np.vstack([noise.z0, kicks]), axis=0)
    steps = np.diff(times)[:, np.newaxis] * velocities[:-1]
    positions = np.cumsum(np.vstack([noise.x0, steps]), axis=0)

    # atom a sits on the segment opened by the last jump before it
    seg = np.cumsum(accepted) - accepted
    z_left = velocities[seg]
    x_at = positions[seg] + (s - times[seg])[:, np.newaxis] * z_left
    return PicardPath(
        times=times,
        positions=positions,
        velocities=velocities,
        levels=np.full(len(times), noise.level),
        horizon=noise.horizon,
        accepted=accepted,
        z_left=z_left,
        x_at=x_at,
        psi=psi,
        base_z_left=base_z_left,
    )


def picard_iterates(model, kernel, noise, n_iterates):
    """Iterates ``0 .. n_iterates`` on one frozen-noise realization."""
    if n_iterates < 1:
        raise ValueError("need at least one pass")
    paths = [initial_iterate(noise)]
    for _ in range(n_iterates):
        paths.append(picard_pass(model, kernel, noise, paths[-1]))
    return paths


def supremum_distance(p, q):
    """Uniform pathwise distance ``sup |dX| + sup |dZ|``.

    Both position differences are piecewise linear and both velocity
    differences piecewise constant, so the suprema are attained on the
    union of the two breakpoint grids.
    """
    if p.horizon != q.horizon:
        raise ValueError("paths live on different horizons")
    ts = np.unique(np.concatenate([p.times, q.times, [p.horizon]]))
    dx = np.linalg.norm(p.position(ts) - q.position(ts), axis=1).max()
    dz = np.linalg.norm(p.velocity(ts) - q.velocity(ts), axis=1).max()
    return float(dx + dz)


@dataclass
class ContractionReport:
    """Pathwise iterate distances over an ensemble of realizations.

    ``distances[i, k]`` is the uniform distance between iterates
    ``k + 1`` and ``k`` on realization ``i``.
    """

    distances: np.ndarray

    @property
    def n_realizations(self):
        return self.distances.shape[0]

    @property
    def n_steps(self):
        return self.distances.shape[1]

    def mean(self):
        return self.distances.mean(axis=0)

    def stderr(self):
        n = self.n_realizations
        return self.distances.std(axis=0, ddof=1) / math.sqrt(n)

    def paired_decrements(self, start=2):
        """Per-step drop ``d_n - d_{n+1}`` for ``n >= start``.

        Returns (mean drops, their standard errors), paired across
        realizations so common noise cancels.
        """
        if start < 1:
            raise ValueError("start must be >= 1")
        cols = self.distances[:, start - 1 :]
        diffs = cols[:, :-1] - cols[:, 1:]
        if diffs.shape[1] == 0:
            return np.array([]), np.array([])
        se = diffs.std(axis=0, ddof=1) / math.sqrt(self.n_realizations)
        return diffs.mean(axis=0), se

    def passes_to_fixed_point(self):
        """First pass whose iterate equals its predecessor, per realization.

        Pass ``k + 1`` reaches the fixed point when ``distances[i, k]``
        is exactly zero; 0 marks a realization that did not within
        ``n_steps`` passes.
        """
        zero = self.distances == 0.0
        return np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, 0)

    def nonincreasing_from(self, start=2):
        """True when no step ``n >= start`` shows a significant increase."""
        drops, se = self.paired_decrements(start)
        if len(drops) == 0:
            return True
        return bool(np.all(drops >= -_INCREASE_Z * se))


def contraction_profile(
    model,
    kernel,
    level,
    horizon,
    n_iterates,
    n_realizations,
    seed,
    x0=None,
    z0=None,
):
    """Distance profile of the Picard scheme over independent noises.

    Realization ``i`` runs entirely on ``stream(seed, i)``; the
    envelope is built once and shared by every realization.
    """
    if n_iterates < 2:
        raise ValueError("need at least two passes to measure a distance")
    if n_realizations < 2:
        raise ValueError(f"need at least two realizations, got {n_realizations}")
    envelope = Envelope(model, kernel, horizon)
    dist = np.empty((n_realizations, n_iterates))
    for i in range(n_realizations):
        noise = _frozen_noise(envelope, level, stream(seed, i), x0, z0)
        paths = picard_iterates(model, kernel, noise, n_iterates)
        for k in range(n_iterates):
            dist[i, k] = supremum_distance(paths[k + 1], paths[k])
    return ContractionReport(distances=dist)
