"""Exact simulation of the velocity-jump transport process.

The simulated object is a tagged particle with position ``X_t`` moving
in straight lines between collisions and velocity ``Z_t`` jumping by the
scattering transfer against a prescribed background density ``f``.  The
generator acting on a test function ``psi(x, z)`` is

    (Z_t . grad_x) psi
    + int [psi(x, z + alpha_j(z, v, theta, phi)) - psi(x, z)]
          f(t, x, v) sigma(|project_j(z) - v|) dv Q(dtheta) dphi,

so the total jump intensity at state ``(t, x, z)`` equals
``2 pi |Q| int sigma_j(z, v) f(t, x, v) dv``.

Simulation is by acceptance-rejection against a state-independent
dominating process, which keeps the scheme exact:

* the conditional density is bounded, ``f(t, x | v) <= F``;
* the truncated cross section obeys ``sigma_j(z, v) <= c W(v)`` with a
  weight ``W`` depending only on the candidate velocity:
  ``W = 1`` for ``gamma = 0``, ``W = j + |v|`` for ``gamma = 1`` and
  ``W = 1 + j + |v|`` for intermediate ``gamma`` (both bounds use
  ``|project_j(z)| <= j``);
* candidate velocities are drawn from the weighted marginal
  ``W(v) m(t, v) / E[W]``, so the residual acceptance ratio
  ``sigma_j f(t, x | v) / (c W(v) F)`` never exceeds one.

Every candidate evaluates that ratio and raises if it exceeds one,
turning any bound violation into a hard failure instead of a silently
wrong law.  Soft potentials (``gamma < 0``) admit no finite envelope of
this form and are rejected.

The truncation level can escalate: whenever a jump carries ``|Z|``
beyond the current level the level grows by a fixed step and the
candidate schedule is regenerated from the current time (a stopping
time, so the restarted exponential clock is still exact).  Since the
projection is the identity on ``|z| <= level``, the escalating process
realizes the untruncated dynamics; with escalation off the process is
the genuinely truncated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import angular_mass, sample_theta, sigma_weight
from .rng import stream
from .truncation import alpha_j, sigma_j

__all__ = [
    "SimConfig",
    "CandidateRecord",
    "EventLog",
    "Trajectory",
    "EnvelopeError",
    "Envelope",
    "check_envelope",
    "jump_intensity",
    "initial_state",
    "simulate",
    "simulate_ensemble",
]


class EnvelopeError(RuntimeError):
    """A dominating bound failed at a concrete candidate."""


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for a single-particle simulation.

    Parameters
    ----------
    horizon : float
        Final time ``T > 0``.
    level : float
        Initial truncation level ``j >= 1``.
    level_step : float
        Increment applied when escalation triggers.
    escalate : bool
        Grow the level whenever ``|Z|`` exceeds it (untruncated
        dynamics); with ``False`` the level stays fixed.
    collisions : bool
        With ``False`` the particle free-streams (no jump schedule at
        all), which gives the exactly solvable transport benchmark.
    max_events : int
        Guard on the total number of candidates per trajectory.
    """

    horizon: float
    level: float = 4.0
    level_step: float = 4.0
    escalate: bool = True
    collisions: bool = True
    max_events: int = 1_000_000

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        # negated comparisons also reject NaN
        if not self.level >= 1.0:
            raise ValueError("truncation level must be >= 1")
        if not self.level_step > 0.0:
            raise ValueError("level step must be positive")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass
class CandidateRecord:
    """One fully drawn candidate of the dominating process."""

    time: float
    velocity: np.ndarray
    theta: float
    phi: float
    r: float
    bound: float
    accepted: bool
    level: float


@dataclass
class EventLog:
    """Candidate bookkeeping for one trajectory.

    The counters are always maintained; ``records`` holds the full
    per-candidate draws only when the run was asked to keep them.
    """

    records: list[CandidateRecord] = field(default_factory=list)
    n_candidates: int = 0
    n_accepted: int = 0
    n_skipped: int = 0


@dataclass
class Trajectory:
    """Piecewise-linear path with right-continuous velocity.

    ``times[k]`` is where segment ``k`` starts (``times[0] = 0``),
    ``positions[k]`` the position there, ``velocities[k]`` the constant
    velocity on ``[times[k], times[k+1])`` (the last segment extends to
    the horizon) and ``levels[k]`` the truncation level in force.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    levels: np.ndarray
    horizon: float

    def _segment(self, t):
        t = np.asarray(t, dtype=np.float64)
        if not np.all((t >= 0.0) & (t <= self.horizon)):
            raise ValueError("query time outside [0, horizon]")
        return np.minimum(
            np.searchsorted(self.times, t, side="right") - 1, len(self.times) - 1
        )

    def position(self, t):
        """Position at time(s) ``t``, vectorized."""
        k = self._segment(t)
        t = np.asarray(t, dtype=np.float64)
        dt = (t - self.times[k])[..., np.newaxis]
        return self.positions[k] + dt * self.velocities[k]

    def velocity(self, t):
        """Velocity at time(s) ``t`` (right-continuous at jumps)."""
        return self.velocities[self._segment(t)]

    @property
    def jump_times(self):
        return self.times[1:]

    @property
    def n_jumps(self):
        return len(self.times) - 1

    def max_speed(self):
        """Largest speed attained over the whole path."""
        return float(np.linalg.norm(self.velocities, axis=1).max())


class Envelope:
    """The dominating Poisson measure up to ``horizon``.

    The engine and Picard iteration draw every candidate through one
    envelope.  It reads the density bound ``F`` and the horizon-wide
    speed bound from the model once, and turns each point of the
    constant-rate clock into a candidate by null thinning (Lewis &
    Shedler 1979) and marking.  Raises for soft potentials, which this
    envelope cannot dominate.
    """

    def __init__(self, model, kernel, horizon):
        if kernel.gamma < 0.0:
            raise ValueError(
                "no finite state-independent envelope exists for gamma < 0"
            )
        self.model = model
        self.kernel = kernel
        self.horizon = horizon
        self.f_sup = model.conditional_sup(horizon)
        self.speed_bound = math.sqrt(model.speed_sq_bound(horizon))

    def _weight(self, level, speed):
        """Weight ``W`` at ``speed``; affine, so ``E[W]`` at the mean speed."""
        return sigma_weight(self.kernel, level + speed)

    def rate(self, level):
        """Constant candidate rate dominating the jump intensity.

        Equals ``2 pi |Q| c F sup_t E[W(v)]`` with the mean speed bounded
        through ``E|v| <= sqrt(E|v|^2)``.
        """
        w_bar = self._weight(level, self.speed_bound)
        return (
            2.0 * math.pi * angular_mass(self.kernel) * self.kernel.c
            * self.f_sup * w_bar
        )

    def draw(self, t, level, rng):
        """Thin the clock point at time ``t`` and mark it if it survives.

        Returns ``None`` for a thinned point, otherwise the marks
        ``(v, theta, phi, r, bound)``: a velocity from the weighted
        marginal ``W(v) m(t, v) / E[W]``, the angle pair, the envelope
        ``bound = c W(v) F`` and a threshold ``r`` uniform under it.
        """
        # Null-thin the constant-rate clock down to the time-varying
        # dominating rate 2 pi |Q| c F E[W](t).  The ratio depends only
        # on time, never on the particle state, so the remaining points
        # still form the wanted inhomogeneous Poisson process.
        w_mean = self._weight(level, self.model.mean_speed(t))
        w_bar = self._weight(level, self.speed_bound)
        keep = w_mean / w_bar
        if keep > 1.0 + 1e-9:
            raise EnvelopeError(
                f"mean envelope weight {w_mean} exceeds its horizon bound {w_bar}"
            )
        if rng.random() >= keep:
            return None

        # The weighted marginal mixes the plain marginal (the constant
        # part of W) with the speed-tilted one.
        if self.kernel.gamma == 0.0 or (
            rng.random() * w_mean < self._weight(level, 0.0)
        ):
            v = self.model.sample_velocity(t, rng, 1)[0]
        else:
            v = self.model.sample_speed_tilted(t, rng, 1)[0]
        theta = float(sample_theta(self.kernel, rng.random()))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        bound = self.kernel.c * self._weight(level, np.linalg.norm(v)) * self.f_sup
        return v, theta, phi, rng.random() * bound, bound

    def candidates(self, t, level, rng):
        """The candidate clock on ``(t, horizon)``: ``(time, marks)`` pairs.

        Exponential inter-arrivals at the constant :meth:`rate` give the
        points and :meth:`draw` thins and marks each one (``marks`` is
        ``None`` for a thinned point); a zero rate gives no point.
        Sending a new level restarts the clock at the last point's time,
        a stopping time.  Raises ``RuntimeError`` past
        ``SimConfig.max_events`` points.
        """
        return self._clock(t, level, rng, SimConfig.max_events)

    def _clock(self, t, level, rng, max_events):
        """:meth:`candidates` with a cap of ``max_events`` points."""
        rate = self.rate(level)
        n = 0
        while rate > 0.0:
            t = t + rng.exponential(1.0 / rate)
            if t >= self.horizon:
                return
            if n >= max_events:
                raise RuntimeError(f"candidate count exceeded max_events={max_events}")
            n += 1
            new_level = yield t, self.draw(t, level, rng)
            if new_level is not None:
                level, rate = new_level, self.rate(new_level)
                yield  # the reply to send(); iteration resumes with next()


def jump_intensity(model, kernel, t, x, z, v, level, bound):
    """Jump intensity ``sigma_j(z, v) f(t, x | v)`` of one candidate or rows.

    ``t`` and ``bound`` are scalars or one per row.  The engine calls it
    per candidate, a Picard pass once on all atoms.  Raises
    :class:`EnvelopeError` naming the first row above its ``bound``.
    """
    intensity = sigma_j(kernel, z, v, level) * model.conditional(t, x, v)
    check_envelope(intensity, bound, t, level)
    return intensity


def check_envelope(intensity, bound, t, level):
    """Raise :class:`EnvelopeError` where an intensity exceeds its bound.

    Takes one candidate or rows of them, with ``bound`` and ``t`` per
    row, and names the first offending row.  The relative slack of 1e-9
    only absorbs roundoff.
    """
    over = intensity > bound * (1.0 + 1e-9)
    if np.count_nonzero(over):
        a = np.argmax(over)
        intensity, bound, t = (
            q[a] if np.ndim(q) else q for q in (intensity, bound, t)
        )
        raise EnvelopeError(
            f"jump intensity {intensity} exceeds envelope {bound} "
            f"at t={t}, level={level}"
        )


def initial_state(model, rng, x0=None, z0=None):
    """Initial pair ``(x0, z0)``; missing parts are drawn at time zero."""
    if x0 is None or z0 is None:
        xs, zs = model.sample_state(0.0, rng, 1)
        x0 = xs[0] if x0 is None else np.asarray(x0, dtype=np.float64)
        z0 = zs[0] if z0 is None else np.asarray(z0, dtype=np.float64)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        z0 = np.asarray(z0, dtype=np.float64)
    if x0.shape != (3,) or z0.shape != (3,):
        raise ValueError("initial state must be a pair of 3-vectors")
    return x0, z0


def simulate(model, kernel, config, rng, x0=None, z0=None, log_events=True):
    """Run one trajectory of the jump process.

    Parameters
    ----------
    model : densities.DensityModel
        Background density driving the collisions.
    kernel : kernels.KernelSpec
    config : SimConfig
    rng : numpy.random.Generator
        Source of all randomness for this trajectory.
    x0, z0 : array_like (3,), optional
        Initial state; defaults are drawn from the model at time zero.
    log_events : bool
        Keep per-candidate records (switch off for large ensembles).

    Returns
    -------
    (Trajectory, EventLog)
    """
    envelope = Envelope(model, kernel, config.horizon) if config.collisions else None
    return _simulate(model, envelope, config, rng, x0, z0, log_events)


def _simulate(model, envelope, config, rng, x0, z0, log_events):
    """One trajectory on a prebuilt envelope (``None``: free streaming)."""
    x0, z0 = initial_state(model, rng, x0, z0)
    horizon = config.horizon
    level = config.level
    if config.escalate:
        while np.linalg.norm(z0) > level:
            level += config.level_step

    times = [0.0]
    positions = [x0.copy()]
    velocities = [z0.copy()]
    levels = [level]
    log = EventLog()

    clock = () if envelope is None else envelope._clock(
        0.0, level, rng, config.max_events
    )
    x = x0.copy()
    z = z0.copy()
    for t, marks in clock:
        if marks is None:
            log.n_skipped += 1
            continue
        log.n_candidates += 1

        v, theta, phi, r, bound = marks
        x_now = x + (t - times[-1]) * z
        intensity = jump_intensity(
            model, envelope.kernel, t, x_now, z, v, level, bound
        )[0]
        accepted = r < intensity
        if accepted:
            log.n_accepted += 1

        if log_events:
            log.records.append(
                CandidateRecord(
                    time=t,
                    velocity=v.copy(),
                    theta=theta,
                    phi=float(phi),
                    r=float(r),
                    bound=float(bound),
                    accepted=bool(accepted),
                    level=level,
                )
            )
        if not accepted:
            continue

        z = z + alpha_j(z, v, theta, phi, level)
        x = x_now
        times.append(t)
        positions.append(x.copy())
        velocities.append(z.copy())

        if config.escalate and np.linalg.norm(z) > level:
            while np.linalg.norm(z) > level:
                level += config.level_step
            # new envelope constants; the clock restarts at this jump
            # time, which is a stopping time
            clock.send(level)
        levels.append(level)

    traj = Trajectory(
        np.array(times),
        np.array(positions),
        np.array(velocities),
        np.array(levels, dtype=np.float64),
        horizon,
    )
    return traj, log


def simulate_ensemble(
    model, kernel, config, seed, n_paths, x0=None, z0=None, log_events=False
):
    """Independent trajectories on per-index Philox streams.

    Trajectory ``i`` draws everything from ``stream(seed, i)``, so any
    subset can be reproduced without replaying the rest.  The envelope
    is built once and shared by every trajectory.

    Returns
    -------
    (list[Trajectory], list[EventLog])
    """
    envelope = Envelope(model, kernel, config.horizon) if config.collisions else None
    trajectories = []
    logs = []
    for i in range(n_paths):
        traj, log = _simulate(
            model, envelope, config, stream(seed, i), x0, z0, log_events
        )
        trajectories.append(traj)
        logs.append(log)
    return trajectories, logs
