"""Exact simulation of the velocity-jump transport process.

The simulated object is a tagged particle with position ``X_t`` moving
in straight lines between collisions and velocity ``Z_t`` jumping by the
scattering transfer against a prescribed background density ``f``.  The
generator acting on a test function ``psi(x, z)`` is

    (Z_t . grad_x) psi
    + int [psi(x, z + alpha_j(z, v, theta, phi)) - psi(x, z)]
          f(t, x, v) sigma(|project_j(z) - v|) dv Q(dtheta) dphi,

so the total jump intensity at state ``(t, x, z)`` equals
``2 pi |Q| int sigma(|project_j(z) - v|) f(t, x, v) dv``.  A candidate
velocity ``v`` is accepted against ``sigma(|project_j(z) - v|) f(t, x | v)``,
the :func:`jump_intensity` that the engine and Picard iteration share.

Simulation is by acceptance-rejection against a state-independent
dominating process, which keeps the scheme exact:

* the conditional density is bounded, ``f(t, x | v) <= F``;
* the truncated cross section obeys ``sigma(|project_j(z) - v|) <= c W(v)``
  with a weight ``W`` depending only on the candidate velocity:
  ``W = 1`` for ``gamma = 0``, ``W = j + |v|`` for ``gamma = 1`` and
  ``W = 1 + j + |v|`` for intermediate ``gamma`` (both bounds use
  ``|project_j(z)| <= j``);
* candidate velocities are drawn from the weighted marginal
  ``W(v) m(t, v) / E[W]``, so the residual acceptance ratio
  ``jump_intensity / (c W(v) F)`` never exceeds one.

Every visited candidate evaluates that ratio and raises if it exceeds
one, turning any bound violation into a hard failure instead of a
silently wrong law.  Soft potentials (``gamma < 0``) admit no finite
envelope of this form and are rejected.

The envelope never reads the particle's state, so a path's candidates
at one level are drawn ahead: in blocks sized by the path's own
expected point count, from the path's own stream, in a fixed column
order.  Only accept-and-kick is sequential, and only within a path.
Between jumps the state is known along a line, so every candidate up to
the next acceptance is decided by the current state alone.  An ensemble
therefore runs in rounds: each live path offers a window of its next
candidates, all window rows get one :func:`jump_intensity` call at
their path's current state (``z`` projected once per path), each path
stops at its first acceptance, and one more call kicks the accepted
rows.  The rows after an acceptance are read again next round, at the
post-jump state, and only visited rows are checked against the
envelope.  Every operation is row-wise, so a path simulated alone
equals, bit for bit, the same path inside any ensemble, and the window
size changes no result.

The truncation level can escalate: whenever a jump carries ``|Z|``
beyond the current level the level grows by a fixed step, the rest of
the path's candidates is discarded and new ones are drawn from the jump
time (a stopping time, so the restarted exponential clock is still
exact).  Since the projection is the identity on ``|z| <= level``, the
escalating process realizes the untruncated dynamics; with escalation
off the process is the genuinely truncated one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import deflection_alpha, row_norms
from .kernels import angular_mass, sample_theta, sigma, sigma_weight
from .rng import stream
from .truncation import project_j

__all__ = [
    "SimConfig",
    "CandidateRecord",
    "EventLog",
    "Trajectory",
    "EnvelopeError",
    "Candidates",
    "Envelope",
    "check_envelope",
    "jump_intensity",
    "initial_state",
    "simulate",
    "simulate_ensemble",
]


# Rows of one candidate block at most, which bounds a block's memory.
_BLOCK_MAX = 1 << 16
# Candidates a path offers in its first round after a jump; a round
# without a jump doubles its next window.
_WINDOW = 8


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
        Guard on the clock points per trajectory, thinned ones included.
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
        # chained comparisons also reject NaN
        if not 1.0 <= self.level < math.inf:
            raise ValueError("truncation level must be finite and >= 1")
        if not 0.0 < self.level_step < math.inf:
            raise ValueError("level step must be positive and finite")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass(slots=True)
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

    The counters are always kept; ``records`` holds the full
    per-candidate draws, in time order, only when the run was asked to
    keep them.
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
    def n_jumps(self):
        return len(self.times) - 1

    def max_speed(self):
        """Largest speed attained over the whole path."""
        return float(np.linalg.norm(self.velocities, axis=1).max())


class Candidates(NamedTuple):
    """Marked clock points of one path at one level, as columns.

    ``points[a]`` counts the path's clock points up to candidate ``a``,
    thinned ones included; ``n_points`` counts them up to the horizon.
    """

    times: np.ndarray
    velocities: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    thresholds: np.ndarray
    bounds: np.ndarray
    points: np.ndarray
    n_points: int


class Envelope:
    """The dominating Poisson measure up to ``horizon``.

    The engine and Picard iteration draw every candidate through one
    envelope.  It reads the density bound ``F`` and the horizon-wide
    speed bound from the model once, and turns each point of the
    constant-rate clock into a candidate by null thinning (Lewis &
    Shedler 1979) and marking.  Each candidate's ``bound`` dominates its
    :func:`jump_intensity` at any state; both callers hold the rows they
    read to it with :func:`check_envelope`.  Raises for soft potentials,
    which this envelope cannot dominate.
    """

    def __init__(self, model, kernel, horizon):
        if kernel.gamma < 0.0:
            raise ValueError(
                "no finite state-independent envelope exists for gamma < 0"
            )
        if not 0.0 < horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
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

    def candidates(self, t, level, rng, max_events=SimConfig.max_events, used=0):
        """The candidates of the clock on ``(t, horizon)`` at a fixed ``level``.

        The clock has exponential gaps at the constant :meth:`rate`; a
        zero rate gives no point and draws nothing.  Its points come in
        blocks of the expected count ``rate * (horizon - t)`` plus three
        standard deviations, each block drawing its gaps, keep uniforms
        and mixture-choice uniforms, then the velocities of the points
        it keeps, then theta, phi and the thresholds.  ``used`` counts
        the path's clock points before ``t``; raises ``RuntimeError``
        when those and the points before the horizon exceed ``max_events``.
        """
        rate = self.rate(level)
        w_bar = self._weight(level, self.speed_bound)
        blocks = [([], np.empty((0, 3)), [], [], [], [], np.empty(0, np.int64))]
        n_points = used
        while rate > 0.0:
            mu = rate * (self.horizon - t)
            size = min(int(mu + 3.0 * math.sqrt(mu)) + 1, _BLOCK_MAX)
            clock = np.cumsum(np.append(t, rng.exponential(1.0 / rate, size)))[1:]
            keep_u, mix_u = rng.random((2, size))
            inside = int(np.searchsorted(clock, self.horizon))
            if n_points + inside > max_events:
                raise RuntimeError(f"candidate count exceeded max_events={max_events}")

            # Null-thin the clock down to the time-varying dominating
            # rate 2 pi |Q| c F E[W](t).  The ratio depends only on time,
            # never on the particle state, so the remaining points still
            # form the wanted inhomogeneous Poisson process.
            s = clock[:inside]
            w_mean = np.full(inside, self._weight(level, self.model.mean_speed(s)))
            keep = w_mean / w_bar
            if np.any(keep > 1.0 + 1e-9):
                a = np.argmax(keep > 1.0 + 1e-9)
                raise EnvelopeError(
                    f"mean envelope weight {w_mean[a]} exceeds its horizon bound "
                    f"{w_bar} at t={s[a]}"
                )
            kept = np.flatnonzero(keep_u[:inside] < keep)
            marks = self._marks(s[kept], w_mean[kept], mix_u[kept], level, rng)
            blocks.append((*marks, kept + 1 + n_points))
            n_points += inside
            if inside < size:
                break
            t = clock[-1]
        return Candidates(*map(np.concatenate, zip(*blocks)), n_points)

    def _marks(self, s, w_mean, mix_u, level, rng):
        """Velocity, angles, threshold and bound of the kept points ``s``."""
        # The weighted marginal mixes the plain marginal (the constant
        # part of W) with the speed-tilted one.
        plain = mix_u * w_mean < self._weight(level, 0.0)
        v = np.empty((len(s), 3))
        v[plain] = self.model.sample_velocity(s[plain], rng, np.count_nonzero(plain))
        v[~plain] = self.model.sample_speed_tilted(
            s[~plain], rng, len(s) - np.count_nonzero(plain)
        )
        thetas = sample_theta(self.kernel, rng.random(len(s)))
        phis = rng.uniform(0.0, 2.0 * math.pi, len(s))
        bounds = np.full(
            len(s), self.kernel.c * self._weight(level, row_norms(v)) * self.f_sup
        )
        return s, v, thetas, phis, rng.random(len(s)) * bounds, bounds


def jump_intensity(model, kernel, t, x, z_proj, v):
    """Jump intensity ``sigma(|z_proj - v|) f(t, x | v)`` of rows of candidates.

    ``z_proj`` holds velocities already projected by
    :func:`~boltzgas.truncation.project_j`, and ``t`` is a scalar or one
    time per row.  Nothing is checked: an engine round calls it on its
    window rows and checks the rows it visits, a Picard pass calls it
    once on all atoms and checks them all with :func:`check_envelope`.
    """
    return sigma(kernel, row_norms(z_proj - v)) * model.conditional(t, x, v)


def check_envelope(intensity, bound, t, level):
    """Raise :class:`EnvelopeError` where an intensity exceeds its bound.

    Takes one candidate or rows of them, with ``bound``, ``t`` and
    ``level`` per row, and names the first offending row.  The relative
    slack of 1e-9 only absorbs roundoff.
    """
    over = _above(intensity, bound)
    if np.count_nonzero(over):
        a = np.argmax(over)
        intensity, bound, t, level = (
            q[a] if np.ndim(q) else q for q in (intensity, bound, t, level)
        )
        raise EnvelopeError(
            f"jump intensity {intensity} exceeds envelope {bound} "
            f"at t={t}, level={level}"
        )


def _above(intensity, bound):
    """Where ``intensity`` exceeds ``bound`` beyond a relative roundoff slack.

    A NaN intensity counts as exceeding it, since no thinning decision
    against it would be right.
    """
    return ~np.less_equal(intensity, bound * (1.0 + 1e-9))


def initial_state(model, rng, x0=None, z0=None):
    """Initial pair ``(x0, z0)``; missing parts are drawn at time zero."""
    if x0 is None or z0 is None:
        xs, zs = model.sample_state(0.0, rng, 1)
        x0 = xs[0] if x0 is None else x0
        z0 = zs[0] if z0 is None else z0
    x0, z0 = (np.asarray(a, dtype=np.float64) for a in (x0, z0))
    if x0.shape != (3,) or z0.shape != (3,) or not np.isfinite([x0, z0]).all():
        raise ValueError("initial state must be a pair of finite 3-vectors")
    return x0, z0


def simulate(model, kernel, config, rng, x0=None, z0=None, log_events=True):
    """One trajectory of the jump process: an ensemble of one on ``rng``.

    ``x0`` and ``z0`` default to draws from the model at time zero, and
    ``log_events`` keeps the per-candidate records.  Returns the
    ``(Trajectory, EventLog)`` pair.
    """
    trajs, logs = _lockstep(model, kernel, config, [rng], x0, z0, log_events)
    return trajs[0], logs[0]


def simulate_ensemble(
    model, kernel, config, seed, n_paths, x0=None, z0=None, log_events=False
):
    """Independent trajectories on per-index Philox streams.

    Trajectory ``i`` draws everything from ``stream(seed, i)``, so any
    subset can be reproduced without replaying the rest: a path equals,
    bit for bit, the same path simulated alone.  The envelope is built
    once and shared by every trajectory.

    Returns
    -------
    (list[Trajectory], list[EventLog])
    """
    rngs = [stream(seed, i) for i in range(n_paths)]
    return _lockstep(model, kernel, config, rngs, x0, z0, log_events)


def _escalated(level, z, step):
    """``level`` raised by ``step`` until each row covers its speed ``|z|``."""
    speed = row_norms(z)
    while np.any(over := speed > level):
        level[over] += step
    return level


def _lockstep(model, kernel, config, rngs, x0, z0, log_events):
    """Trajectories and logs of the paths on ``rngs``, one round at a time.

    A round offers the next candidates of every live path, a window of
    them, at the path's current state: between jumps the state moves on
    a known line, so one row-wise intensity call decides every window
    row.  Each path visits its rows up to its first acceptance; the rows
    after it are read again next round, at the post-jump state.  The
    accepted rows are kicked in one ``deflection_alpha`` call.  A window
    starts at ``_WINDOW`` rows, doubles after a round without a jump and
    is clipped at the end of the path's block.

    Visits, decisions and kicks are those of a scan that takes the next
    candidate of every live path at each step, and an envelope failure
    names the visit that scan meets first: the earliest in its path,
    then the lowest path index.
    """
    n = len(rngs)
    states = [initial_state(model, rng, x0, z0) for rng in rngs]
    x, z = (np.reshape([s[i] for s in states], (n, 3)) for i in (0, 1))
    level = np.full(n, float(config.level))
    if config.escalate:
        level = _escalated(level, z, config.level_step)
    paths, t_last = np.arange(n), np.zeros(n)
    # segment starts and visited candidates, appended in scan order
    segments = [(paths, t_last.copy(), x.copy(), z.copy(), level.copy())]
    visits = [(paths[:0], paths[:0], paths[:0] < 0, t_last[:0])]
    envelope = Envelope(model, kernel, config.horizon) if config.collisions else None
    drawn = None  # every draw of every path, stacked in draw order
    n_points = np.zeros(n, dtype=np.int64)
    seen, width = np.zeros(n, dtype=np.int64), np.full(n, _WINDOW)
    # the envelope failure the scan meets first: its key (visits before it
    # in its path) * n + path, the last slot left to scan (no path visits
    # more than max_events candidates) and the failing row's values
    failure, limit, failed = math.inf, config.max_events, None

    def draw(rows, times, levels):
        """Draw for ``rows`` from ``times`` at ``levels``; return their row ranges."""
        nonlocal drawn
        fresh = [
            envelope.candidates(t, j, rngs[i], config.max_events, n_points[i])
            for i, t, j in zip(rows, times, levels)
        ]
        n_points[rows] = [c.n_points for c in fresh]
        stacked = ([] if drawn is None else [drawn[:7]]) + [c[:7] for c in fresh]
        drawn = Candidates(*map(np.concatenate, zip(*stacked)), None)
        lengths = np.array([len(c.times) for c in fresh], dtype=np.intp)
        starts = len(drawn.times) - np.cumsum(lengths[::-1])[::-1]
        return starts, starts + lengths

    k, stop = draw(paths, t_last, level) if envelope and n else (paths, paths)
    while True:
        # past a failure only visits the scan would make before it remain
        live = (k < stop) & (seen <= limit)
        if not live.all():
            paths, k, stop, x, z, t_last, level, seen, width = (
                a[live] for a in (paths, k, stop, x, z, t_last, level, seen, width)
            )
        if not len(paths):
            break
        size = np.minimum(np.minimum(width, stop - k), limit + 1 - seen)
        ends = np.cumsum(size)
        starts = ends - size
        owner = np.repeat(np.arange(len(paths)), size)
        offset = np.arange(ends[-1]) - starts[owner]
        rows = k[owner] + offset
        s, v = drawn.times[rows], drawn.velocities[rows]
        x_now = x[owner] + (s - t_last[owner])[:, np.newaxis] * z[owner]
        z_proj = project_j(z, level)
        intensity = jump_intensity(model, kernel, s, x_now, z_proj[owner], v)
        accepted = drawn.thresholds[rows] < intensity
        # each path's first acceptance, or its window size if it has none
        first = np.minimum.reduceat(np.where(accepted, offset, size[owner]), starts)
        visited = np.flatnonzero(offset <= first[owner])
        by = owner[visited]
        over = visited[_above(intensity[visited], drawn.bounds[rows[visited]])]
        if len(over):
            key = (seen[owner[over]] + offset[over]) * n + paths[owner[over]]
            if key.min() < failure:
                failure, a = key.min(), over[np.argmin(key)]
                limit = failure // n
                failed = intensity[a], drawn.bounds[rows[a]], s[a], level[owner[a]]
        visits.append((paths[by], rows[visited], accepted[visited], level[by]))
        jumped = first < size
        hit = np.flatnonzero(jumped & (seen + first < limit))
        step = np.minimum(first + 1, size)
        seen, k = seen + step, k + step
        width = np.where(jumped, _WINDOW, 2 * width)
        if not len(hit):
            continue
        a = starts[hit] + first[hit]
        kh, s, x_now, lh = rows[a], s[a], x_now[a], level[hit]
        z_now = z[hit] + deflection_alpha(
            z_proj[hit], v[a], drawn.thetas[kh], drawn.phis[kh]
        )
        x[hit], z[hit], t_last[hit] = x_now, z_now, s
        if config.escalate and np.any(up := row_norms(z_now) > lh):
            level[hit] = lh = _escalated(lh, z_now, config.level_step)
            n_points[paths[hit[up]]] = drawn.points[kh[up]]
            up = hit[up]
            k[up], stop[up] = draw(paths[up], t_last[up], level[up])
        segments.append((paths[hit], s, x_now, z_now, lh))
    if failed is not None:
        check_envelope(*failed)

    paths, *columns = map(np.concatenate, zip(*segments))
    order = np.argsort(paths, kind="stable")
    columns = [col[order] for col in columns]
    ends = np.cumsum(np.bincount(paths, minlength=n)).tolist()
    trajs = [
        Trajectory(*(col[a:b] for col in columns), config.horizon)
        for a, b in zip([0] + ends, ends)
    ]
    paths, k, accepted, level = map(np.concatenate, zip(*visits))
    counts = np.bincount(paths, minlength=n), np.bincount(paths[accepted], minlength=n)
    logs = [
        EventLog(n_candidates=int(c), n_accepted=int(a), n_skipped=int(p - c))
        for c, a, p in zip(*counts, n_points)
    ]
    if log_events and len(k):
        order = np.argsort(paths, kind="stable")
        k, c = k[order], drawn
        records = map(
            CandidateRecord,
            c.times[k].tolist(), c.velocities[k], c.thetas[k].tolist(),
            c.phis[k].tolist(), c.thresholds[k].tolist(), c.bounds[k].tolist(),
            accepted[order].tolist(), level[order].tolist(),
        )
        for log in logs:
            log.records = list(itertools.islice(records, log.n_candidates))
    return trajs, logs

