"""Tests for the exact-thinning trajectory engine."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas import densities, engine, kernels
from boltzgas.geometry import row_norms
from boltzgas.rng import stream
from boltzgas.truncation import alpha_j, project_j
from boltzgas.kernels import sigma


HARD_SPHERE_UNIT = kernels.KernelSpec(
    gamma=0.0, c=1.0, angular=kernels.HARD_SPHERE
)
HARD_SPHERE_LINEAR = kernels.KernelSpec(
    gamma=1.0, c=0.5, angular=kernels.HARD_SPHERE
)
# a tenfold rate: hundreds of clock points, some of them thinned
HARD_SPHERE_DENSE = kernels.KernelSpec(
    gamma=1.0, c=5.0, angular=kernels.HARD_SPHERE
)


class TestSimConfig:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            engine.SimConfig(horizon=0.0)
        with pytest.raises(ValueError, match="horizon"):
            engine.SimConfig(horizon=math.inf)

    def test_rejects_small_level(self):
        with pytest.raises(ValueError, match="level"):
            engine.SimConfig(horizon=1.0, level=0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            engine.SimConfig(horizon=1.0, level_step=0.0)

    def test_rejects_nan_level_and_step(self):
        # NaN fails every comparison, so a plain `level < 1` lets it in;
        # an infinite level overflows the block size, an infinite step
        # makes every escalation infinite
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="level must be"):
                engine.SimConfig(horizon=1.0, level=bad)
            with pytest.raises(ValueError, match="step"):
                engine.SimConfig(horizon=1.0, level_step=bad)


class TestMajorantRate:
    def test_flat_kernel_closed_form(self):
        box = densities.BoxMaxwellianModel(side=2.0, vel_var=1.0)
        rate = engine.Envelope(box, HARD_SPHERE_UNIT, 1.0).rate(4.0)
        assert_allclose(rate, 2.0 * math.pi / 8.0, rtol=1e-14)

    def test_linear_kernel_uses_speed_bound(self):
        box = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)
        rate = engine.Envelope(box, HARD_SPHERE_LINEAR, 1.0).rate(3.0)
        # the model's horizon-wide speed bound carries a small safety
        # factor, hence the loose tolerance
        expected = 2.0 * math.pi * 0.5 * 1.0 * (3.0 + math.sqrt(3.0))
        assert_allclose(rate, expected, rtol=1e-8)

    def test_soft_potential_refused(self):
        box = densities.BoxMaxwellianModel()
        soft = kernels.KernelSpec(
            gamma=-0.5, c=1.0, angular=kernels.HARD_SPHERE
        )
        with pytest.raises(ValueError, match="gamma < 0"):
            engine.Envelope(box, soft, 1.0).rate(4.0)


class TestSharedEnvelope:
    def test_one_speed_bound_per_ensemble(self):
        class CountingBox(densities.BoxMaxwellianModel):
            speed_bound_calls = 0

            def speed_sq_bound(self, horizon):
                self.speed_bound_calls += 1
                return super().speed_sq_bound(horizon)

        box = CountingBox(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=1.0, level=1.0, level_step=1.0)
        trajs, _ = engine.simulate_ensemble(
            box, HARD_SPHERE_LINEAR, cfg, seed=3, n_paths=20
        )
        assert any(traj.levels[-1] > traj.levels[0] for traj in trajs)
        assert box.speed_bound_calls == 1


class TestCandidateClock:
    def test_points_lie_in_the_window_in_order(self):
        bkw = densities.BKWModel(side=1.5, vel_var=1.0)
        env = engine.Envelope(bkw, HARD_SPHERE_DENSE, 6.0)
        cands = env.candidates(0.5, 1.0, stream(8, 0))
        times = cands.times.tolist()
        assert len(times) > 10 and times == sorted(times)
        assert 0.5 < times[0] and times[-1] < 6.0
        # thinned points are counted but carry no candidate
        assert np.all(np.diff(cands.points) >= 1) and cands.points[0] >= 1
        assert cands.n_points > len(times)
        for name in ("thetas", "phis", "thresholds", "bounds"):
            assert getattr(cands, name).shape == (len(times),)
        assert cands.velocities.shape == (len(times), 3)

    def test_sent_level_restarts_the_clock(self):
        # an escalating jump at time t ends the path's draw; the path
        # goes on with the candidates of a fresh draw from t at its new
        # level, on the same stream
        box = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=1.0, level=2.0, level_step=2.0)
        env = engine.Envelope(box, HARD_SPHERE_LINEAR, 1.0)
        for i in range(100):
            traj, log = engine.simulate(box, HARD_SPHERE_LINEAR, cfg, stream(9, i))
            steps = np.flatnonzero(np.diff(traj.levels) > 0.0) + 1
            if len(steps) == 1:
                break
        else:
            pytest.fail("no path escalated exactly once")
        k = steps[0]
        rng = stream(9, i)
        engine.initial_state(box, rng)
        first = env.candidates(0.0, traj.levels[0], rng)
        n_first = int(np.searchsorted(first.times, traj.times[k])) + 1
        second = env.candidates(
            traj.times[k], traj.levels[k], rng, used=first.points[n_first - 1]
        )
        assert first.times[n_first - 1] == traj.times[k]
        recs = log.records
        assert len(recs) == n_first + len(second.times)
        expected = [(first, a) for a in range(n_first)] + [
            (second, a) for a in range(len(second.times))
        ]
        for rec, (cands, a) in zip(recs, expected):
            assert rec.time == cands.times[a] and rec.r == cands.thresholds[a]
            assert rec.velocity.tobytes() == cands.velocities[a].tobytes()
        assert log.n_candidates + log.n_skipped == second.n_points

    def test_zero_rate_gives_no_point(self):
        class EmptyBox(densities.BoxMaxwellianModel):
            def conditional_sup(self, horizon):
                return 0.0

        env = engine.Envelope(EmptyBox(), HARD_SPHERE_UNIT, 1.0)
        rng = stream(1, 0)
        cands = env.candidates(0.0, 4.0, rng)
        assert len(cands.times) == 0 and cands.n_points == 0
        assert cands.velocities.shape == (0, 3)
        assert rng.random() == stream(1, 0).random()


def _snapshot_130():
    rng = np.random.default_rng(130)
    return densities.MollifiedEmpiricalModel(
        rng.uniform(0.0, 1.0, (130, 3)), rng.normal(0.0, 1.0, (130, 3)),
        h_x=0.1, h_v=0.3, side=1.0,
    )


# one model of each density family, with its horizon
BLOCK_FAMILIES = {
    "box": (densities.BoxMaxwellianModel(side=1.0, vel_var=1.0), 1.0),
    "bkw": (densities.BKWModel(side=1.0, vel_var=1.0), 3.0),
    "gaussian": (
        densities.GaussianProductModel(pos_var=0.1, drift="free_transport"),
        0.6,
    ),
    "snapshot": (_snapshot_130(), 0.3),
}


def assert_same_run(a, b):
    """Two (Trajectory, EventLog) pairs agree bit for bit."""
    (ta, la), (tb, lb) = a, b
    for name in ("times", "positions", "velocities", "levels"):
        assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes(), name
    assert (la.n_candidates, la.n_accepted, la.n_skipped) == (
        lb.n_candidates, lb.n_accepted, lb.n_skipped
    )
    assert len(la.records) == len(lb.records)
    for ra, rb in zip(la.records, lb.records):
        assert ra.velocity.tobytes() == rb.velocity.tobytes()
        assert (ra.time, ra.theta, ra.phi, ra.r, ra.bound, ra.accepted, ra.level) == (
            rb.time, rb.theta, rb.phi, rb.r, rb.bound, rb.accepted, rb.level
        )


class TestBlockContract:
    """Blocks from each path's own stream, scanned in lockstep slots."""

    @pytest.mark.parametrize("escalate", [True, False])
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_path_alone_equals_its_ensemble_member(self, family, escalate):
        model, horizon = BLOCK_FAMILIES[family]
        cfg = engine.SimConfig(
            horizon=horizon, level=1.5, level_step=1.0, escalate=escalate
        )
        alone = [
            engine.simulate(model, HARD_SPHERE_LINEAR, cfg, stream(61, i))
            for i in range(2)
        ]
        assert sum(log.n_accepted for _, log in alone) > 0
        grew = False
        for size in (2, 7, 33):
            trajs, logs = engine.simulate_ensemble(
                model, HARD_SPHERE_LINEAR, cfg, 61, size, log_events=True
            )
            for i in range(2):
                assert_same_run(alone[i], (trajs[i], logs[i]))
            grew |= any(t.levels[-1] > t.levels[0] for t in trajs)
        assert grew == escalate

    def test_escalation_discards_the_rest_of_its_block(self):
        box = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=1.0, level=2.0, level_step=2.0)
        env = engine.Envelope(box, HARD_SPHERE_LINEAR, 1.0)
        discarded = 0
        for i in range(40):
            traj, log = engine.simulate(box, HARD_SPHERE_LINEAR, cfg, stream(67, i))
            rng = stream(67, i)
            engine.initial_state(box, rng)
            first = env.candidates(0.0, traj.levels[0], rng)
            steps = np.flatnonzero(np.diff(traj.levels) > 0.0) + 1
            if not len(steps):
                assert len(log.records) == len(first.times)
                continue
            t_up = traj.times[steps[0]]
            later = first.thresholds[first.times > t_up]
            logged = np.array([rec.r for rec in log.records])
            assert not np.isin(later, logged).any()
            discarded += len(later)
        assert discarded > 0

    def test_max_events_counts_thinned_points(self):
        bkw = densities.BKWModel(side=1.5, vel_var=1.0)
        cfg = engine.SimConfig(horizon=6.0, level=1.0, escalate=False)
        _, log = engine.simulate(bkw, HARD_SPHERE_DENSE, cfg, stream(71, 0))
        points = log.n_candidates + log.n_skipped
        assert log.n_skipped > 0
        capped = dataclasses.replace(cfg, max_events=points)
        _, again = engine.simulate(bkw, HARD_SPHERE_DENSE, capped, stream(71, 0))
        assert again.n_candidates + again.n_skipped == points
        capped = dataclasses.replace(cfg, max_events=points - 1)
        with pytest.raises(RuntimeError, match=f"max_events={points - 1}$"):
            engine.simulate(bkw, HARD_SPHERE_DENSE, capped, stream(71, 0))

    def test_candidate_records_have_slots(self):
        # logs of every round are kept by long runs, so a record holds no dict
        rec = engine.CandidateRecord(
            time=0.1, velocity=np.zeros(3), theta=1.0, phi=2.0, r=0.3,
            bound=0.5, accepted=True, level=4.0,
        )
        assert not hasattr(rec, "__dict__")
        assert engine.CandidateRecord.__slots__ == (
            "time", "velocity", "theta", "phi", "r", "bound", "accepted", "level"
        )

    def test_envelope_error_names_the_first_offending_row(self):
        box = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)
        rng = stream(73, 0)
        z, v = rng.standard_normal((2, 5, 3))
        t = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        level = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        intensity = engine.jump_intensity(
            box, HARD_SPHERE_LINEAR, t, np.zeros((5, 3)), project_j(z, level), v
        )
        bound = intensity.copy()
        engine.check_envelope(intensity, bound, t, level)
        bound[[1, 3]] *= 0.5
        with pytest.raises(engine.EnvelopeError, match=r"at t=0\.2, level=3\.0$"):
            engine.check_envelope(intensity, bound, t, level)


def reference_lockstep(model, kernel, config, rngs, x0, z0, log_events):
    """The engine by its definition: every live path's next candidate per slot.

    Each slot decides one candidate of every live path by the intensity
    ``sigma(|project_j(z) - v|) f(t, x | v)``, checks the envelope on
    every row, and kicks the accepted rows with ``alpha_j``.
    """
    n = len(rngs)
    states = [engine.initial_state(model, rng, x0, z0) for rng in rngs]
    x, z = (np.reshape([s[i] for s in states], (n, 3)) for i in (0, 1))
    level = np.full(n, float(config.level))
    if config.escalate:
        level = engine._escalated(level, z, config.level_step)
    paths, t_last = np.arange(n), np.zeros(n)
    segments = [(paths, t_last.copy(), x.copy(), z.copy(), level.copy())]
    visits = [(paths[:0], paths[:0], paths[:0] < 0, t_last[:0])]
    envelope = (
        engine.Envelope(model, kernel, config.horizon) if config.collisions else None
    )
    drawn = None
    n_points = np.zeros(n, dtype=np.int64)

    def draw(rows, times, levels):
        nonlocal drawn
        fresh = [
            envelope.candidates(t, j, rngs[i], config.max_events, n_points[i])
            for i, t, j in zip(rows, times, levels)
        ]
        n_points[rows] = [c.n_points for c in fresh]
        stacked = ([] if drawn is None else [drawn[:7]]) + [c[:7] for c in fresh]
        drawn = engine.Candidates(*map(np.concatenate, zip(*stacked)), None)
        lengths = np.array([len(c.times) for c in fresh], dtype=np.intp)
        starts = len(drawn.times) - np.cumsum(lengths[::-1])[::-1]
        return starts, starts + lengths

    k, stop = draw(paths, t_last, level) if envelope and n else (paths, paths)
    while True:
        live = k < stop
        if not live.all():
            paths, k, stop, x, z, t_last, level = (
                a[live] for a in (paths, k, stop, x, z, t_last, level)
            )
        if not len(paths):
            break
        s, v = drawn.times[k], drawn.velocities[k]
        x_now = x + (s - t_last)[:, np.newaxis] * z
        z_proj = project_j(z, level)
        intensity = sigma(kernel, row_norms(z_proj - v)) * model.conditional(
            s, x_now, v
        )
        engine.check_envelope(intensity, drawn.bounds[k], s, level)
        accepted = drawn.thresholds[k] < intensity
        visits.append((paths, k, accepted, level))
        k = k + 1
        hit = accepted.nonzero()[0]
        if not len(hit):
            continue
        kh, s, x_now, z_now, lh = k[hit] - 1, s[hit], x_now[hit], z[hit], level[hit]
        z_now = z_now + alpha_j(z_now, v[hit], drawn.thetas[kh], drawn.phis[kh], lh)
        x[hit], z[hit], t_last[hit] = x_now, z_now, s
        if config.escalate and np.any(up := row_norms(z_now) > lh):
            lh = engine._escalated(lh, z_now, config.level_step)
            level = level.copy()
            level[hit] = lh
            n_points[paths[hit[up]]] = drawn.points[kh[up]]
            up = hit[up]
            k[up], stop[up] = draw(paths[up], t_last[up], level[up])
        segments.append((paths[hit], s, x_now, z_now, lh))

    paths, *columns = map(np.concatenate, zip(*segments))
    order = np.argsort(paths, kind="stable")
    columns = [col[order] for col in columns]
    ends = np.cumsum(np.bincount(paths, minlength=n)).tolist()
    trajs = [
        engine.Trajectory(*(col[a:b] for col in columns), config.horizon)
        for a, b in zip([0] + ends, ends)
    ]
    paths, k, accepted, level = map(np.concatenate, zip(*visits))
    counts = np.bincount(paths, minlength=n), np.bincount(paths[accepted], minlength=n)
    logs = [
        engine.EventLog(n_candidates=int(c), n_accepted=int(a), n_skipped=int(p - c))
        for c, a, p in zip(*counts, n_points)
    ]
    if log_events and len(k):
        order = np.argsort(paths, kind="stable")
        k, c = k[order], drawn
        records = map(
            engine.CandidateRecord,
            c.times[k].tolist(), c.velocities[k], c.thetas[k].tolist(),
            c.phis[k].tolist(), c.thresholds[k].tolist(), c.bounds[k].tolist(),
            accepted[order].tolist(), level[order].tolist(),
        )
        for log in logs:
            log.records = list(itertools.islice(records, log.n_candidates))
    return trajs, logs


ORACLE_KERNELS = {
    "hard-sphere-0": HARD_SPHERE_UNIT,
    "hard-sphere-1": HARD_SPHERE_LINEAR,
    "power-law-0": kernels.KernelSpec(
        gamma=0.0, c=1.0, angular=kernels.POWER_LAW, nu=0.5, epsilon=0.05
    ),
    "power-law-1": kernels.KernelSpec(
        gamma=1.0, c=0.5, angular=kernels.POWER_LAW, nu=0.5, epsilon=0.05
    ),
}


class UnderReportingBump(densities.GaussianProductModel):
    """A position bump whose bound is 30% low: its centre breaks the envelope.

    Paths far from the centre thin most candidates and so race ahead in
    rounds, while paths near it jump often; so the failure that the
    candidate-by-candidate scan meets first can turn up a round after
    another path's later one (seed 6 below).
    """

    def conditional_sup(self, horizon):
        return 0.7 * super().conditional_sup(horizon)


class TestRounds:
    """Windows of candidates per round against the candidate-by-candidate scan."""

    @pytest.mark.parametrize("escalate", [True, False])
    @pytest.mark.parametrize("kernel", sorted(ORACLE_KERNELS))
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_rounds_equal_the_slot_scan(self, family, kernel, escalate, monkeypatch):
        model, horizon = BLOCK_FAMILIES[family]
        kernel = ORACLE_KERNELS[kernel]
        cfg = engine.SimConfig(
            horizon=horizon, level=1.5, level_step=1.0, escalate=escalate
        )
        expected = reference_lockstep(
            model, kernel, cfg, [stream(83, i) for i in range(6)], None, None, True
        )
        assert sum(log.n_accepted for log in expected[1]) > 0
        for window in (engine._WINDOW, 1, 64):
            monkeypatch.setattr(engine, "_WINDOW", window)
            got = engine.simulate_ensemble(model, kernel, cfg, 83, 6, log_events=True)
            for i in range(6):
                assert_same_run(
                    (expected[0][i], expected[1][i]), (got[0][i], got[1][i])
                )

    @pytest.mark.parametrize("window", [8, 1, 64])
    def test_envelope_error_names_the_scans_first_failure(self, window, monkeypatch):
        monkeypatch.setattr(engine, "_WINDOW", window)
        bump = UnderReportingBump(pos_var=0.1, drift="free_transport")
        cfg = engine.SimConfig(horizon=1.0, level=1.5, level_step=1.0)
        named = set()
        for seed in range(8):
            rngs = [stream(seed, i) for i in range(12)]
            with pytest.raises(engine.EnvelopeError) as expected:
                reference_lockstep(bump, HARD_SPHERE_UNIT, cfg, rngs, None, None, False)
            message = re.escape(str(expected.value))
            with pytest.raises(engine.EnvelopeError, match=f"^{message}$"):
                engine.simulate_ensemble(bump, HARD_SPHERE_UNIT, cfg, seed, 12)
            named.add(str(expected.value))
        assert len(named) == 8

    def test_dropped_rows_are_never_checked(self):
        # the density breaks its bound only on the initial ray x = (s, 0, 0),
        # s > 0.5, which a path leaves at its first jump; a flat kernel
        # accepts every candidate, so the first window's later rows are read
        # at the pre-jump state on that ray and dropped unvisited
        class RayBox(densities.BoxMaxwellianModel):
            def conditional(self, t, x, v):
                x = np.atleast_2d(x)
                on_ray = (x[:, 0] > 0.5) & (x[:, 1] == 0.0) & (x[:, 2] == 0.0)
                return np.where(on_ray, 2.0, 1.0) * super().conditional(t, x, v)

        box = RayBox(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=2.0, level=4.0, escalate=False)
        x0, z0 = np.zeros(3), np.array([1.0, 0.0, 0.0])
        block = engine.Envelope(box, HARD_SPHERE_UNIT, 2.0).candidates(
            0.0, 4.0, stream(89, 0)
        )
        later = slice(1, engine._WINDOW)
        assert block.times[0] < 0.5 < block.times[later][-1]
        # read at the pre-jump state, the first window's later rows fail
        s = block.times[later]
        intensity = engine.jump_intensity(
            box, HARD_SPHERE_UNIT, s, s[:, np.newaxis] * z0, project_j(z0, 4.0),
            block.velocities[later],
        )
        with pytest.raises(engine.EnvelopeError):
            engine.check_envelope(intensity, block.bounds[later], s, 4.0)
        expected = reference_lockstep(
            box, HARD_SPHERE_UNIT, cfg, [stream(89, 0)], x0, z0, True
        )
        got = engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(89, 0), x0, z0)
        assert_same_run((expected[0][0], expected[1][0]), got)


class TestFlatKernelBox:
    """gamma = 0 in a box makes every candidate a jump.

    The intensity sigma * f(t, x | v) then equals its envelope
    c / side^3 identically, so the accepted events are exactly the
    candidate clock: a Poisson process of known rate.
    """

    def setup_method(self):
        self.box = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)
        self.cfg = engine.SimConfig(horizon=1.0, level=4.0)

    # path i of an ensemble runs on stream(seed, i), as a simulate call would

    def test_acceptance_is_certain(self):
        _, logs = engine.simulate_ensemble(
            self.box, HARD_SPHERE_UNIT, self.cfg, 42, 200
        )
        for log in logs:
            assert log.n_accepted == log.n_candidates
            assert log.n_skipped == 0

    def test_jump_count_matches_rate(self):
        n_runs = 3000
        trajs, _ = engine.simulate_ensemble(
            self.box, HARD_SPHERE_UNIT, self.cfg, 7, n_runs
        )
        counts = np.array([traj.n_jumps for traj in trajs], dtype=float)
        lam = 2.0 * math.pi
        se = math.sqrt(lam / n_runs)
        assert abs(counts.mean() - lam) < 4.0 * se

    def test_counters_survive_disabled_logging(self):
        traj, log = engine.simulate(
            self.box, HARD_SPHERE_UNIT, self.cfg, stream(3, 0), log_events=False
        )
        assert log.records == []
        assert log.n_accepted == traj.n_jumps
        assert log.n_candidates == traj.n_jumps


class TestDeterminism:
    def test_same_stream_reproduces_bitwise(self):
        gm = densities.GaussianProductModel()
        cfg = engine.SimConfig(horizon=0.8, level=2.0)
        t1, l1 = engine.simulate(gm, HARD_SPHERE_LINEAR, cfg, stream(9, 4))
        t2, l2 = engine.simulate(gm, HARD_SPHERE_LINEAR, cfg, stream(9, 4))
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.velocities, t2.velocities)
        assert len(l1.records) == len(l2.records)
        for a, b in zip(l1.records, l2.records):
            assert a.time == b.time and a.r == b.r
            assert np.array_equal(a.velocity, b.velocity)

    def test_different_indices_differ(self):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=1.0)
        t1, _ = engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(9, 0))
        t2, _ = engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(9, 1))
        assert not np.array_equal(t1.velocities[0], t2.velocities[0])


class TestTrajectory:
    def _run(self, seed=11, index=0):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=1.0)
        return engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(seed, index))

    def test_position_is_piecewise_linear(self):
        traj, _ = self._run()
        assert traj.n_jumps > 0
        # integrate the velocity segments by hand to a few query times
        for t in [0.0, 0.3, 0.71, traj.horizon]:
            k = np.searchsorted(traj.times, t, side="right") - 1
            k = min(k, len(traj.times) - 1)
            manual = traj.positions[k] + (t - traj.times[k]) * traj.velocities[k]
            assert_allclose(traj.position(t), manual, rtol=0, atol=0)

    def test_velocity_right_continuous_at_jump(self):
        traj, _ = self._run()
        tj = traj.jump_times[0]
        assert np.array_equal(traj.velocity(tj), traj.velocities[1])
        before = traj.velocity(np.nextafter(tj, 0.0))
        assert np.array_equal(before, traj.velocities[0])

    def test_position_continuous_across_jump(self):
        traj, _ = self._run(index=2)
        for k, tj in enumerate(traj.jump_times, start=1):
            drift = traj.positions[k - 1] + (
                tj - traj.times[k - 1]
            ) * traj.velocities[k - 1]
            assert np.array_equal(traj.positions[k], drift)

    def test_query_outside_horizon_rejected(self):
        traj, _ = self._run()
        with pytest.raises(ValueError, match="horizon"):
            traj.position(1.5)
        with pytest.raises(ValueError, match="horizon"):
            traj.velocity(-0.1)

    def test_nan_query_rejected(self):
        traj, _ = self._run()
        with pytest.raises(ValueError, match="horizon"):
            traj.position(np.nan)
        with pytest.raises(ValueError, match="horizon"):
            traj.velocity([0.2, np.nan])

    def test_vectorized_queries(self):
        traj, _ = self._run()
        ts = np.linspace(0.0, traj.horizon, 37)
        pos = traj.position(ts)
        vel = traj.velocity(ts)
        assert pos.shape == (37, 3) and vel.shape == (37, 3)
        single = np.array([traj.position(t) for t in ts])
        assert np.array_equal(pos, single)


class TestEventReplay:
    """Replaying the log against the stored path must reproduce it."""

    def test_accepted_jumps_replay_bitwise(self):
        gm = densities.GaussianProductModel(vel_var=1.0, pos_var=0.5)
        cfg = engine.SimConfig(horizon=1.5, level=2.0, level_step=2.0)
        found_jump = False
        for i in range(60):
            traj, log = engine.simulate(
                gm, HARD_SPHERE_LINEAR, cfg, stream(17, i)
            )
            accepted = [r for r in log.records if r.accepted]
            assert len(accepted) == traj.n_jumps
            for k, rec in enumerate(accepted, start=1):
                found_jump = True
                z_prev = traj.velocities[k - 1]
                kick = alpha_j(
                    z_prev, rec.velocity, rec.theta, rec.phi, rec.level
                )
                assert np.array_equal(traj.velocities[k], z_prev + kick)
                assert rec.level == traj.levels[k - 1]
        assert found_jump

    def test_decisions_replay_from_recorded_r(self):
        gm = densities.GaussianProductModel(vel_var=1.0, pos_var=0.5)
        cfg = engine.SimConfig(horizon=1.0, level=2.0)
        traj, log = engine.simulate(gm, HARD_SPHERE_LINEAR, cfg, stream(23, 1))
        for rec in log.records:
            x_now = traj.position(rec.time)
            z_now = traj.velocity(rec.time)
            if rec.accepted:
                # the acceptance decision used the pre-jump velocity
                k = int(np.searchsorted(traj.times, rec.time))
                z_now = traj.velocities[k - 1]
            rel = np.linalg.norm(project_j(z_now, rec.level) - rec.velocity)
            intensity = sigma(HARD_SPHERE_LINEAR, rel) * gm.conditional(
                rec.time, x_now[np.newaxis], rec.velocity[np.newaxis]
            )[0]
            assert intensity <= rec.bound * (1.0 + 1e-9)
            assert rec.accepted == (rec.r < intensity)

    def test_envelope_violation_raises(self):
        class LyingModel(densities.BoxMaxwellianModel):
            def conditional_sup(self, horizon):
                return 0.1 * super().conditional_sup(horizon)

        box = LyingModel(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=2.0)
        with pytest.raises(engine.EnvelopeError, match="exceeds envelope"):
            for i in range(50):
                engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(5, i))


class NaNDensityBox(densities.BoxMaxwellianModel):
    """Box envelope, but every conditional density is NaN."""

    def conditional(self, t, x, v):
        return np.full(len(np.atleast_2d(x)), np.nan)


class TestNaNIntensity:
    def test_check_envelope_flags_nan(self):
        with pytest.raises(engine.EnvelopeError, match="jump intensity nan"):
            engine.check_envelope(math.nan, 1.0, 0.2, 3.0)
        with pytest.raises(engine.EnvelopeError, match="jump intensity nan"):
            engine.check_envelope(np.array([0.5, math.nan]), np.ones(2), 0.2, 3.0)
        engine.check_envelope(1.0, 1.0, 0.2, 3.0)

    def test_simulate_raises_on_a_nan_density(self):
        box = NaNDensityBox(side=1.0, vel_var=1.0)
        cfg = engine.SimConfig(horizon=1.0, level=4.0)
        with pytest.raises(engine.EnvelopeError, match="jump intensity nan"):
            engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(5, 0))
        with pytest.raises(engine.EnvelopeError, match="jump intensity nan"):
            engine.simulate_ensemble(box, HARD_SPHERE_UNIT, cfg, seed=5, n_paths=4)


class TestLevelEscalation:
    def test_speed_never_exceeds_level_when_escalating(self):
        gm = densities.GaussianProductModel()
        cfg = engine.SimConfig(horizon=1.0, level=1.0, level_step=1.0)
        grew = False
        for i in range(150):
            traj, _ = engine.simulate(
                gm, HARD_SPHERE_LINEAR, cfg, stream(31, i), log_events=False
            )
            speeds = np.linalg.norm(traj.velocities, axis=1)
            assert np.all(speeds <= traj.levels * (1.0 + 1e-12))
            if traj.levels.max() > traj.levels.min():
                grew = True
        assert grew

    def test_initial_state_escalates_before_start(self):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=0.1, level=1.0, level_step=1.0)
        traj, _ = engine.simulate(
            box,
            HARD_SPHERE_UNIT,
            cfg,
            stream(1, 0),
            x0=[0.0, 0.0, 0.0],
            z0=[0.0, 0.0, 3.5],
        )
        assert traj.levels[0] == 4.0

    def test_fixed_level_stays_fixed(self):
        gm = densities.GaussianProductModel()
        cfg = engine.SimConfig(
            horizon=1.0, level=1.0, level_step=1.0, escalate=False
        )
        for i in range(100):
            traj, _ = engine.simulate(
                gm, HARD_SPHERE_LINEAR, cfg, stream(37, i), log_events=False
            )
            assert np.all(traj.levels == 1.0)

    def test_truncated_jump_uses_projected_state(self):
        # with a fixed small level and a fast initial velocity the kick
        # must be computed from the projected velocity
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=2.0, level=1.0, escalate=False)
        z0 = np.array([0.0, 0.0, 5.0])
        traj, log = engine.simulate(
            box, HARD_SPHERE_UNIT, cfg, stream(41, 3), x0=[0.5] * 3, z0=z0
        )
        accepted = [r for r in log.records if r.accepted]
        assert accepted, "expected at least one jump"
        rec = accepted[0]
        kick = alpha_j(z0, rec.velocity, rec.theta, rec.phi, 1.0)
        assert np.array_equal(traj.velocities[1], z0 + kick)


class TestFreeStreaming:
    def test_no_collisions_gives_straight_line(self):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=1.0, collisions=False)
        traj, log = engine.simulate(
            box,
            HARD_SPHERE_UNIT,
            cfg,
            stream(1, 0),
            x0=[0.1, 0.2, 0.3],
            z0=[1.0, -1.0, 0.5],
        )
        assert traj.n_jumps == 0
        assert log.n_candidates == 0
        assert_allclose(
            traj.position(0.6), [0.7, -0.4, 0.6], rtol=0, atol=1e-15
        )


class TestEnsemble:
    def test_paths_are_independent_and_reproducible(self):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=0.5)
        trajs, logs = engine.simulate_ensemble(
            box, HARD_SPHERE_UNIT, cfg, seed=77, n_paths=5
        )
        assert len(trajs) == 5 and len(logs) == 5
        again, _ = engine.simulate_ensemble(
            box, HARD_SPHERE_UNIT, cfg, seed=77, n_paths=5
        )
        for a, b in zip(trajs, again):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.velocities, b.velocities)
        assert not np.array_equal(trajs[0].velocities[0], trajs[1].velocities[0])

    def test_single_path_matches_ensemble_member(self):
        box = densities.BoxMaxwellianModel()
        cfg = engine.SimConfig(horizon=0.5)
        trajs, _ = engine.simulate_ensemble(
            box, HARD_SPHERE_UNIT, cfg, seed=13, n_paths=3
        )
        solo, _ = engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(13, 2))
        assert np.array_equal(trajs[2].times, solo.times)


class TestTimeDependentBackground:
    def test_relaxing_background_runs_clean(self):
        bkw = densities.BKWModel(side=1.0, vel_var=1.0, c0=0.4, rate=1.0)
        cfg = engine.SimConfig(horizon=2.0)
        jumps = 0
        for i in range(50):
            traj, log = engine.simulate(
                bkw, HARD_SPHERE_UNIT, cfg, stream(53, i), log_events=False
            )
            # flat kernel: the weighted marginal is the plain marginal
            # and the time thinning never fires
            assert log.n_skipped == 0
            jumps += traj.n_jumps
        assert jumps > 0

    def test_fractional_gamma_runs_clean(self):
        gm = densities.GaussianProductModel()
        spec = kernels.KernelSpec(
            gamma=0.4, c=0.7, angular=kernels.POWER_LAW, nu=0.5, epsilon=0.05
        )
        cfg = engine.SimConfig(horizon=0.5, level=2.0)
        total = 0
        for i in range(50):
            traj, log = engine.simulate(gm, spec, cfg, stream(59, i))
            for rec in log.records:
                assert rec.r <= rec.bound
            total += log.n_candidates
        assert total > 0


class TestInitialState:
    def test_bad_shapes_rejected(self):
        box = densities.BoxMaxwellianModel()
        # an infinite speed would never end the level escalation, and free
        # streaming would carry a NaN into the path
        bad = [
            ([1.0, 2.0], [0.0] * 3),
            (np.zeros(3), [math.inf, 0.0, 0.0]),
            (np.zeros(3), [math.nan, 0.0, 0.0]),
            ([0.0, -math.inf, 0.0], np.zeros(3)),
            ([0.0, 0.0, math.nan], None),
        ]
        for collisions, (x0, z0) in itertools.product((True, False), bad):
            cfg = engine.SimConfig(horizon=1.0, collisions=collisions)
            with pytest.raises(ValueError, match="3-vector"):
                engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(1, 0), x0, z0)

    def test_default_state_drawn_from_model(self):
        box = densities.BoxMaxwellianModel(side=2.0)
        cfg = engine.SimConfig(horizon=0.1)
        traj, _ = engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(2, 0))
        assert np.all((traj.positions[0] >= 0.0) & (traj.positions[0] <= 2.0))

    def test_max_events_guard(self):
        box = densities.BoxMaxwellianModel(side=0.2)
        cfg = engine.SimConfig(horizon=50.0, max_events=10)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.simulate(box, HARD_SPHERE_UNIT, cfg, stream(3, 0))
