"""Picard iteration for the velocity-jump process on frozen noise.

All iterates share one realization of the driving randomness: a Poisson
schedule of candidate atoms, each carrying a proposal velocity, a
scattering angle pair, and an absolute acceptance threshold.  Iterate
zero is the constant pair ``(X_0, Z_0)``; iterate ``k + 1`` walks the
atom list in time order and, at each atom, evaluates both the
acceptance test and the deflection on iterate ``k``'s state:

    accept  iff  r <= sigma_j(Z^k_{s-}, v) f(s, X^k_s | v),
    kick    =    alpha_j(Z^k_{s-}, v, theta, psi),

so every pass is an explicit functional of the previous one and the
fixed point solves the jump equation driven by that same noise.  Since
no atom reads the current pass, decisions, frame turns and kicks are
computed for all atoms at once; only the segment velocities (running
sums of the kicks) and positions (running sums of the displacements)
are sequential, and ``np.cumsum`` adds them in time order.

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

from .engine import Envelope, EnvelopeError, initial_state
from .geometry import tanaka_rotation
from .rng import stream
from .truncation import alpha_j, project_j, sigma_j

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
class PicardPath:
    """One iterate: its piecewise path plus per-atom bookkeeping.

    ``slopes`` are the position derivatives per segment.  They equal
    ``seg_velocities`` for every pass with jumps; iterate zero keeps the
    position frozen at ``X_0`` while carrying velocity ``Z_0``, so its
    slope is zero there.
    """

    seg_times: np.ndarray
    seg_positions: np.ndarray
    seg_velocities: np.ndarray
    slopes: np.ndarray
    horizon: float
    accepted: np.ndarray
    z_left: np.ndarray
    x_at: np.ndarray
    psi: np.ndarray
    base_z_left: np.ndarray

    def _segment(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any((t < 0.0) | (t > self.horizon)):
            raise ValueError("query time outside [0, horizon]")
        return np.minimum(
            np.searchsorted(self.seg_times, t, side="right") - 1,
            len(self.seg_times) - 1,
        )

    def position(self, t):
        k = self._segment(t)
        t = np.asarray(t, dtype=np.float64)
        dt = (t - self.seg_times[k])[..., np.newaxis]
        return self.seg_positions[k] + dt * self.slopes[k]

    def velocity(self, t):
        return self.seg_velocities[self._segment(t)]

    @property
    def n_jumps(self):
        return int(self.accepted.sum())


def frozen_noise(model, kernel, level, horizon, rng, x0=None, z0=None):
    """Draw the complete atom list for one realization.

    The schedule is a Poisson process at the constant majorant rate;
    atoms are thinned down to the time-varying dominating rate and the
    survivors receive a velocity from the weighted marginal, an angle
    pair, and an acceptance threshold uniform under the envelope.
    """
    return _frozen_noise(Envelope(model, kernel, horizon), level, rng, x0, z0)


def _frozen_noise(envelope, level, rng, x0, z0):
    """Atom list of one realization on a prebuilt envelope."""
    if level < 1.0:
        raise ValueError("truncation level must be >= 1")
    x0, z0 = initial_state(envelope.model, rng, x0, z0)
    horizon = envelope.horizon
    n_raw = rng.poisson(envelope.rate(level) * horizon)
    times_raw = np.sort(rng.uniform(0.0, horizon, n_raw))
    atoms = []
    for t in times_raw:
        marks = envelope.draw(t, level, rng)
        if marks is not None:
            atoms.append((t, *marks))
    columns = list(zip(*atoms)) or [()] * 6
    times, vels, thetas, phis, thresholds, bounds = map(np.array, columns)
    return FrozenNoise(
        times=times,
        velocities=vels.reshape(len(times), 3),
        thetas=thetas,
        phis=phis,
        thresholds=thresholds,
        bounds=bounds,
        x0=x0,
        z0=z0,
        level=level,
        horizon=horizon,
    )


def initial_iterate(noise):
    """Iterate zero: position frozen at ``X_0``, velocity at ``Z_0``."""
    n = noise.n_atoms
    return PicardPath(
        seg_times=np.array([0.0]),
        seg_positions=noise.x0[np.newaxis].copy(),
        seg_velocities=noise.z0[np.newaxis].copy(),
        slopes=np.zeros((1, 3)),
        horizon=noise.horizon,
        accepted=np.zeros(n, dtype=bool),
        z_left=np.tile(noise.z0, (n, 1)),
        x_at=np.tile(noise.x0, (n, 1)),
        psi=noise.phis.copy(),
        base_z_left=np.tile(noise.z0, (n, 1)),
    )


def picard_pass(model, kernel, noise, prev):
    """Apply the Picard map once: build the next iterate from ``prev``."""
    j = noise.level
    s = noise.times
    v = noise.velocities
    base_now = prev.z_left

    # an unchanged base keeps its frame bit for bit; tanaka_rotation
    # would return roundoff instead of an exact zero turn
    psi = prev.psi.copy()
    moved = np.any(base_now != prev.base_z_left, axis=1)
    old_base = project_j(prev.base_z_left[moved], j)
    psi[moved] += tanaka_rotation(
        old_base, v[moved], project_j(base_now[moved], j), v[moved]
    )

    # DensityModel takes one time per call, so f(s, x | v) is per atom
    density = np.array([
        model.conditional(t, x[np.newaxis], w[np.newaxis])[0]
        for t, x, w in zip(s, prev.x_at, v)
    ])
    intensity = sigma_j(kernel, base_now, v, j) * density
    over = intensity > noise.bounds * (1.0 + 1e-9)
    if over.any():
        a = np.argmax(over)
        raise EnvelopeError(
            f"jump intensity {intensity[a]} exceeds envelope {noise.bounds[a]} "
            f"at t={s[a]}, level={j}"
        )

    accepted = noise.thresholds <= intensity
    kicks = alpha_j(
        base_now[accepted], v[accepted], noise.thetas[accepted], psi[accepted], j
    )
    # the only sequential work: running sums in time order
    seg_times = np.concatenate([[0.0], s[accepted]])
    seg_velocities = np.cumsum(np.vstack([noise.z0, kicks]), axis=0)
    steps = np.diff(seg_times)[:, np.newaxis] * seg_velocities[:-1]
    seg_positions = np.cumsum(np.vstack([noise.x0, steps]), axis=0)

    # atom a sits on the segment opened by the last jump before it
    seg = np.cumsum(accepted) - accepted
    z_left = seg_velocities[seg]
    x_at = seg_positions[seg] + (s - seg_times[seg])[:, np.newaxis] * z_left
    return PicardPath(
        seg_times=seg_times,
        seg_positions=seg_positions,
        seg_velocities=seg_velocities,
        slopes=seg_velocities.copy(),
        horizon=noise.horizon,
        accepted=accepted,
        z_left=z_left,
        x_at=x_at,
        psi=psi,
        base_z_left=base_now.copy(),
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
    ts = np.unique(
        np.concatenate([p.seg_times, q.seg_times, [p.horizon]])
    )
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

    def nonincreasing_from(self, start=2, z=1.645):
        """True when no step ``n >= start`` shows a significant increase."""
        drops, se = self.paired_decrements(start)
        if len(drops) == 0:
            return True
        return bool(np.all(drops >= -z * se))


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
    envelope = Envelope(model, kernel, horizon)
    dist = np.empty((n_realizations, n_iterates))
    for i in range(n_realizations):
        noise = _frozen_noise(envelope, level, stream(seed, i), x0, z0)
        paths = picard_iterates(model, kernel, noise, n_iterates)
        for k in range(n_iterates):
            dist[i, k] = supremum_distance(paths[k + 1], paths[k])
    return ContractionReport(distances=dist)
