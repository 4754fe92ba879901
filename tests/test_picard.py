"""Tests for the frozen-noise Picard iteration."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import boltzgas as bg
from boltzgas import densities, kernels, picard
from boltzgas.diagnostics import Energy, weak_residual
from boltzgas.engine import Envelope, EnvelopeError, check_envelope
from boltzgas.geometry import row_norms, tanaka_rotation
from boltzgas.rng import stream
from boltzgas.truncation import alpha_j, project_j


SPEC = kernels.KernelSpec(gamma=1.0, c=1.0, angular=kernels.HARD_SPHERE)
BOX = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)


def make_noise(seed=5, index=0, level=4.0, horizon=0.3):
    return picard.frozen_noise(BOX, SPEC, level, horizon, stream(seed, index))


def reference_pass(model, kernel, noise, prev):
    """One Picard pass by its definition: atom by atom in time order."""
    j = noise.level
    n = noise.n_atoms
    accepted = np.zeros(n, dtype=bool)
    z_left = np.empty((n, 3))
    x_at = np.empty((n, 3))
    psi = np.empty(n)
    times = [0.0]
    positions = [noise.x0.copy()]
    velocities = [noise.z0.copy()]
    x = noise.x0.copy()
    z = noise.z0.copy()
    t_last = 0.0
    for a in range(n):
        s = noise.times[a]
        v = noise.velocities[a]
        base_now = prev.z_left[a]
        base_old = prev.base_z_left[a]
        psi[a] = prev.psi[a]
        if not np.array_equal(base_now, base_old):
            psi[a] += tanaka_rotation(
                project_j(base_old, j), v, project_j(base_now, j), v
            )
        z_left[a] = z
        x_here = x + (s - t_last) * z
        x_at[a] = x_here
        speed = row_norms(project_j(base_now, j) - v)
        intensity = kernels.sigma(kernel, speed) * model.conditional(
            s, prev.x_at[a], v
        )
        check_envelope(intensity, noise.bounds[a], s, j)
        if noise.thresholds[a] < intensity:
            accepted[a] = True
            z = z + alpha_j(base_now, v, noise.thetas[a], psi[a], j)
            x = x_here
            t_last = s
            times.append(s)
            positions.append(x.copy())
            velocities.append(z.copy())
    return picard.PicardPath(
        times=np.array(times),
        positions=np.array(positions),
        velocities=np.array(velocities),
        levels=np.full(len(times), j),
        horizon=noise.horizon,
        accepted=accepted,
        z_left=z_left,
        x_at=x_at,
        psi=psi,
        base_z_left=prev.z_left.copy(),
    )


def assert_same_path(p, q):
    for field in dataclasses.fields(picard.PicardPath):
        a, b = getattr(p, field.name), getattr(q, field.name)
        if field.name == "horizon":
            assert a == b
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


def assert_passes_match_reference(model, kernel, noise, n_passes=10):
    """Batched and per-atom passes agree bit for bit on every iterate."""
    prev = picard.initial_iterate(noise)
    for _ in range(n_passes):
        cur = picard.picard_pass(model, kernel, noise, prev)
        assert_same_path(cur, reference_pass(model, kernel, noise, prev))
        prev = cur
    return prev


class TestFrozenNoise:
    def test_reproducible(self):
        a = make_noise()
        b = make_noise()
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.thresholds, b.thresholds)

    def test_atom_count_matches_majorant_rate(self):
        horizon = 0.5
        rate = Envelope(BOX, SPEC, horizon).rate(4.0)
        n_real = 300
        counts = [
            make_noise(seed=11, index=i, horizon=horizon).n_atoms
            for i in range(n_real)
        ]
        lam = rate * horizon
        se = math.sqrt(lam / n_real)
        assert abs(np.mean(counts) - lam) < 4.0 * se

    def test_thresholds_sit_under_bounds(self):
        noise = make_noise(seed=3)
        assert np.all(noise.thresholds <= noise.bounds)
        assert np.all(noise.thetas > 0.0) and np.all(noise.thetas <= math.pi)
        assert np.all((noise.phis >= 0.0) & (noise.phis < 2.0 * math.pi))

    def test_times_sorted_within_horizon(self):
        noise = make_noise(seed=8, horizon=0.7)
        assert np.all(np.diff(noise.times) >= 0.0)
        assert np.all((noise.times >= 0.0) & (noise.times <= 0.7))

    def test_level_below_one_rejected(self):
        # NaN and infinity are refused before any noise is drawn
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="level"):
                picard.frozen_noise(BOX, SPEC, bad, 1.0, stream(1, 0))


def _empirical_snapshot():
    rng = np.random.default_rng(3)
    return densities.MollifiedEmpiricalModel(
        rng.uniform(0.0, 1.0, (40, 3)), rng.normal(0.0, 1.0, (40, 3)),
        h_x=0.1, h_v=0.3, side=1.0,
    )


# one model of each density family, with its horizon
FAMILIES = {
    "box": (BOX, 0.3),
    "bkw": (densities.BKWModel(side=1.5, vel_var=1.0), 1.0),
    "gaussian": (
        densities.GaussianProductModel(pos_var=0.1, drift="free_transport"),
        1.0,
    ),
    "empirical": (_empirical_snapshot(), 0.2),
}
STREAM_KERNELS = {
    "flat": kernels.KernelSpec(gamma=0.0, c=0.7, angular=kernels.HARD_SPHERE),
    "hard": kernels.KernelSpec(gamma=1.0, c=0.7, angular=kernels.HARD_SPHERE),
    "grazing": kernels.KernelSpec(
        gamma=0.5, c=0.7, angular=kernels.POWER_LAW, nu=0.5, epsilon=0.05
    ),
}


class TestOneCandidateStream:
    """The frozen noise is the engine's fixed-level candidate list."""

    @pytest.mark.parametrize("kernel_name", sorted(STREAM_KERNELS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_noise_is_the_engine_event_log(self, family, kernel_name):
        model, horizon = FAMILIES[family]
        kernel = STREAM_KERNELS[kernel_name]
        cfg = bg.SimConfig(horizon=horizon, level=1.5, escalate=False)
        atoms = 0
        for i in range(3):
            noise = picard.frozen_noise(
                model, kernel, 1.5, horizon, stream(909, i)
            )
            traj, log = bg.simulate(model, kernel, cfg, stream(909, i))
            recs = log.records
            assert noise.n_atoms == len(recs) == log.n_candidates
            assert noise.x0.tobytes() == traj.positions[0].tobytes()
            assert noise.z0.tobytes() == traj.velocities[0].tobytes()
            columns = {
                "times": [r.time for r in recs],
                "velocities": np.reshape([r.velocity for r in recs], (-1, 3)),
                "thetas": [r.theta for r in recs],
                "phis": [r.phi for r in recs],
                "thresholds": [r.r for r in recs],
                "bounds": [r.bound for r in recs],
            }
            for name, column in columns.items():
                expected = np.asarray(column, dtype=np.float64)
                assert getattr(noise, name).tobytes() == expected.tobytes(), name
            atoms += noise.n_atoms
        assert atoms > 0

    def test_clock_cap_is_the_engine_guard(self, monkeypatch):
        # the cap counts every clock point of the block draw, thinned
        # ones included, and the points a path used before the draw
        model, horizon = FAMILIES["bkw"]
        cfg = bg.SimConfig(horizon=horizon, level=4.0, escalate=False)
        _, log = bg.simulate(model, SPEC, cfg, stream(5, 0))
        points = log.n_candidates + log.n_skipped
        assert log.n_skipped > 0
        monkeypatch.setattr(bg.SimConfig, "max_events", points)
        noise = picard.frozen_noise(model, SPEC, 4.0, horizon, stream(5, 0))
        assert noise.n_atoms == log.n_candidates
        monkeypatch.setattr(bg.SimConfig, "max_events", points - 1)
        with pytest.raises(
            RuntimeError, match=f"candidate count exceeded max_events={points - 1}$"
        ):
            picard.frozen_noise(model, SPEC, 4.0, horizon, stream(5, 0))
        env = Envelope(model, SPEC, horizon)
        rng = stream(5, 0)
        bg.engine.initial_state(model, rng)
        assert env.candidates(0.0, 4.0, rng, points, used=0).n_points == points
        rng = stream(5, 0)
        bg.engine.initial_state(model, rng)
        with pytest.raises(RuntimeError, match=f"max_events={points}$"):
            env.candidates(0.0, 4.0, rng, points, used=1)


def no_jump_noise(noise):
    """The same atoms with thresholds no intensity can pass."""
    return dataclasses.replace(noise, thresholds=np.full(noise.n_atoms, np.inf))


class ZeroDensityBox(densities.BoxMaxwellianModel):
    """Box envelope, but every conditional density is exactly zero."""

    def conditional(self, t, x, v):
        return np.zeros(len(np.atleast_2d(x)))


class NaNDensityBox(densities.BoxMaxwellianModel):
    """Box envelope, but every conditional density is NaN."""

    def conditional(self, t, x, v):
        return np.full(len(np.atleast_2d(x)), np.nan)


class TestInitialIterate:
    def test_free_flight(self):
        noise = make_noise()
        zero = picard.initial_iterate(noise)
        assert isinstance(zero, bg.Trajectory)
        assert zero.n_jumps == 0
        for t in [0.0, 0.1, noise.horizon]:
            assert_allclose(
                zero.position(t), noise.x0 + t * noise.z0, rtol=0, atol=0
            )
            assert_allclose(zero.velocity(t), noise.z0, rtol=0, atol=0)

    def test_atom_views_follow_free_flight(self):
        noise = make_noise(seed=7)
        zero = picard.initial_iterate(noise)
        assert np.all(zero.z_left == noise.z0)
        drift = noise.x0 + noise.times[:, np.newaxis] * noise.z0
        assert np.array_equal(zero.x_at, drift)
        assert np.array_equal(zero.psi, noise.phis)
        assert np.array_equal(zero.levels, [noise.level])

    def test_is_the_pass_with_no_jump(self):
        noise = no_jump_noise(make_noise(seed=9))
        assert noise.n_atoms > 0
        zero = picard.initial_iterate(noise)
        assert_same_path(picard.picard_pass(BOX, SPEC, noise, zero), zero)

    def test_no_jump_realization_is_fixed_at_pass_one(self):
        noise = no_jump_noise(make_noise(seed=9))
        paths = picard.picard_iterates(BOX, SPEC, noise, 3)
        dist = [picard.supremum_distance(q, p) for p, q in zip(paths, paths[1:])]
        rep = picard.ContractionReport(distances=np.array([dist]))
        assert rep.passes_to_fixed_point().tolist() == [1]
        # a density that is zero everywhere makes every realization one
        rep = picard.contraction_profile(
            ZeroDensityBox(side=1.0, vel_var=1.0), SPEC, 4.0, 0.3,
            n_iterates=3, n_realizations=5, seed=12,
        )
        assert np.all(rep.distances == 0.0)
        assert np.all(rep.passes_to_fixed_point() == 1)


class TestPicardPass:
    def test_first_pass_keeps_raw_angles(self):
        # iterate zero used the same base for every atom, so the frame
        # rotation increment vanishes on the first pass
        noise = make_noise(seed=13)
        zero = picard.initial_iterate(noise)
        one = picard.picard_pass(BOX, SPEC, noise, zero)
        assert_allclose(one.psi, noise.phis, rtol=0, atol=1e-12)

    def test_envelope_violation_raises(self):
        class LyingModel(densities.BoxMaxwellianModel):
            def conditional_sup(self, horizon):
                return 0.1 * super().conditional_sup(horizon)

        box = LyingModel(side=1.0, vel_var=1.0)
        flat = kernels.KernelSpec(gamma=0.0, c=1.0, angular=kernels.HARD_SPHERE)
        noise = picard.frozen_noise(box, flat, 4.0, 10.0, stream(5, 0))
        assert noise.n_atoms > 0
        with pytest.raises(EnvelopeError, match="exceeds envelope"):
            picard.picard_pass(box, flat, noise, picard.initial_iterate(noise))

    def test_nan_density_raises(self):
        box = NaNDensityBox(side=1.0, vel_var=1.0)
        noise = picard.frozen_noise(box, SPEC, 4.0, 1.0, stream(5, 0))
        assert noise.n_atoms > 0
        with pytest.raises(EnvelopeError, match="jump intensity nan"):
            picard.picard_iterates(box, SPEC, noise, 3)

    def test_kicks_use_previous_iterate_base(self):
        noise = make_noise(seed=21)
        paths = picard.picard_iterates(BOX, SPEC, noise, 3)
        prev, curr = paths[1], paths[2]
        jump = 0
        for a in range(noise.n_atoms):
            if not curr.accepted[a]:
                continue
            kick = alpha_j(
                prev.z_left[a],
                noise.velocities[a],
                noise.thetas[a],
                curr.psi[a],
                noise.level,
            )
            jump += 1
            expected = curr.velocities[jump - 1] + kick
            assert np.array_equal(curr.velocities[jump], expected)
        assert jump == curr.n_jumps

    def test_position_integrates_own_velocity(self):
        noise = make_noise(seed=22)
        paths = picard.picard_iterates(BOX, SPEC, noise, 2)
        path = paths[2]
        for k in range(1, len(path.times)):
            drift = path.positions[k - 1] + (
                path.times[k] - path.times[k - 1]
            ) * path.velocities[k - 1]
            assert np.array_equal(path.positions[k], drift)

    def test_acceptance_thresholds_respected(self):
        noise = make_noise(seed=31)
        paths = picard.picard_iterates(BOX, SPEC, noise, 3)
        prev, curr = paths[2], paths[3]
        from boltzgas.kernels import sigma

        for a in range(noise.n_atoms):
            rel = np.linalg.norm(
                project_j(prev.z_left[a], noise.level) - noise.velocities[a]
            )
            intensity = sigma(SPEC, rel) * BOX.conditional(
                noise.times[a],
                prev.x_at[a][np.newaxis],
                noise.velocities[a][np.newaxis],
            )[0]
            assert curr.accepted[a] == (noise.thresholds[a] < intensity)

    def test_zero_intensity_never_jumps(self):
        # the thinning rule is strict, as in the engine: a threshold of
        # exactly 0.0 (which rng.random() can return) must not accept an
        # atom whose intensity is zero
        model = ZeroDensityBox(side=1.0, vel_var=1.0)
        noise = make_noise(seed=5)
        assert noise.n_atoms > 0
        zeros = dataclasses.replace(noise, thresholds=np.zeros(noise.n_atoms))
        one = picard.picard_pass(
            model, SPEC, zeros, picard.initial_iterate(zeros)
        )
        assert one.n_jumps == 0 and not one.accepted.any()


# model, horizon and start; the drifting bump is narrow and the path
# starts at its centre so that its atoms are accepted often enough
PINNED_MODELS = {
    "box": (BOX, 0.5, None),
    "bkw": (densities.BKWModel(side=1.5, vel_var=1.0), 1.0, None),
    "gaussian": (
        densities.GaussianProductModel(pos_var=0.1, drift="free_transport"),
        1.0,
        np.zeros(3),
    ),
}


class TestBatchedPass:
    """The batched pass is the per-atom definition, bit for bit."""

    @pytest.mark.parametrize("level", [1.5, 4.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(PINNED_MODELS))
    def test_matches_reference(self, name, gamma, level):
        model, horizon, start = PINNED_MODELS[name]
        kernel = kernels.KernelSpec(
            gamma=gamma, c=0.7, angular=kernels.HARD_SPHERE
        )
        jumps = 0
        for i in range(2):
            noise = picard.frozen_noise(
                model, kernel, level, horizon, stream(808, i), start, start
            )
            jumps += assert_passes_match_reference(model, kernel, noise).n_jumps
        assert jumps > 0

    def test_truncation_is_exercised(self):
        # at level 1.5 some bases lie outside the ball, so project_j acts
        noise = make_noise(seed=808, level=1.5, horizon=0.5)
        last = assert_passes_match_reference(BOX, SPEC, noise)
        assert np.any(np.linalg.norm(last.z_left, axis=1) > 1.5)

    def test_zero_atoms(self):
        noise = make_noise(seed=3)
        empty = dataclasses.replace(
            noise,
            times=noise.times[:0],
            velocities=noise.velocities[:0],
            thetas=noise.thetas[:0],
            phis=noise.phis[:0],
            thresholds=noise.thresholds[:0],
            bounds=noise.bounds[:0],
        )
        last = assert_passes_match_reference(BOX, SPEC, empty, n_passes=2)
        assert last.n_jumps == 0 and last.z_left.shape == (0, 3)
        assert np.array_equal(last.velocities, noise.z0[np.newaxis])

    def test_no_atom_accepted(self):
        noise = make_noise(seed=4)
        assert noise.n_atoms > 0
        last = assert_passes_match_reference(
            BOX, SPEC, no_jump_noise(noise), n_passes=3
        )
        assert last.n_jumps == 0
        assert np.all(last.z_left == noise.z0)
        drift = noise.x0 + noise.times[:, np.newaxis] * noise.z0
        assert np.array_equal(last.x_at, drift)

    def test_envelope_error_names_first_offending_atom(self):
        class LateLiar(densities.BoxMaxwellianModel):
            # the density doubles in the second half of the horizon
            def conditional(self, t, x, v):
                scale = np.where(np.asarray(t) > 0.5, 2.0, 1.0)
                return scale * super().conditional(t, x, v)

        liar = LateLiar(side=1.0, vel_var=1.0)
        flat = kernels.KernelSpec(gamma=0.0, c=1.0, angular=kernels.HARD_SPHERE)
        noise = picard.frozen_noise(liar, flat, 4.0, 1.0, stream(6, 0))
        late = noise.times > 0.5
        assert late.any() and not late[0]
        prev = picard.initial_iterate(noise)
        with pytest.raises(EnvelopeError) as expected:
            reference_pass(liar, flat, noise, prev)
        first = noise.times[np.argmax(late)]
        assert f"t={first}," in str(expected.value)
        with pytest.raises(EnvelopeError, match=re.escape(str(expected.value))):
            picard.picard_pass(liar, flat, noise, prev)


def two_sample_z(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return (a.mean() - b.mean()) / se


class TestFixedPointLaw:
    def test_fixed_point_has_the_engine_law(self):
        # the fixed point solves the jump equation driven by the frozen
        # noise, so its law is the truncated process the engine simulates
        horizon, level, n_real = 0.5, 4.0, 300
        fixed = []
        for i in range(n_real):
            noise = picard.frozen_noise(
                BOX, SPEC, level, horizon, stream(4040, i)
            )
            prev = picard.initial_iterate(noise)
            for _ in range(2 * noise.n_atoms + 2):
                cur = picard.picard_pass(BOX, SPEC, noise, prev)
                if picard.supremum_distance(cur, prev) == 0.0:
                    break
                prev = cur
            else:
                pytest.fail(f"realization {i} missed its fixed point")
            fixed.append(cur)
        cfg = bg.SimConfig(horizon=horizon, level=level, escalate=False)
        engine, _ = bg.simulate_ensemble(BOX, SPEC, cfg, seed=4041, n_paths=n_real)

        def speed_sq(paths):
            return [float(np.sum(p.velocity(horizon) ** 2)) for p in paths]

        jumps = [p.n_jumps for p in fixed], [p.n_jumps for p in engine]
        assert abs(two_sample_z(*jumps)) < 4.0
        assert abs(two_sample_z(speed_sq(fixed), speed_sq(engine))) < 4.0
        assert weak_residual(fixed, BOX, SPEC, Energy()).verdict


class TestFrameAlignment:
    def test_consecutive_kicks_obey_lipschitz_bound(self):
        total = 0
        for i in range(30):
            noise = picard.frozen_noise(BOX, SPEC, 4.0, 0.3, stream(700, i))
            paths = picard.picard_iterates(BOX, SPEC, noise, 4)
            for k in range(1, 4):
                prev, curr = paths[k], paths[k + 1]
                both = prev.accepted & curr.accepted
                for a in np.nonzero(both)[0]:
                    v = noise.velocities[a]
                    th = noise.thetas[a]
                    kick_p = alpha_j(
                        prev.base_z_left[a], v, th, prev.psi[a], 4.0
                    )
                    kick_c = alpha_j(
                        curr.base_z_left[a], v, th, curr.psi[a], 4.0
                    )
                    dz = np.linalg.norm(
                        project_j(prev.base_z_left[a], 4.0)
                        - project_j(curr.base_z_left[a], 4.0)
                    )
                    gap = np.linalg.norm(kick_p - kick_c)
                    assert gap <= 2.0 * th * dz * (1.0 + 1e-9) + 1e-12
                    total += 1
        assert total > 100


class TestDistances:
    def test_hand_built_paths(self):
        # two straight lines from the same origin with different speeds
        def straight(v):
            v = np.asarray(v, dtype=np.float64)
            return bg.Trajectory(
                np.array([0.0]), np.zeros((1, 3)), v[np.newaxis],
                np.array([4.0]), 2.0,
            )

        p = straight([1.0, 0.0, 0.0])
        q = straight([0.0, 0.0, 0.0])
        # position gap grows to 2 at the horizon, velocity gap is 1
        assert_allclose(picard.supremum_distance(p, q), 3.0, rtol=1e-15)

    def test_distance_is_symmetric_and_zero_on_self(self):
        noise = make_noise(seed=41)
        paths = picard.picard_iterates(BOX, SPEC, noise, 2)
        d = picard.supremum_distance(paths[1], paths[2])
        assert d == picard.supremum_distance(paths[2], paths[1])
        assert picard.supremum_distance(paths[2], paths[2]) == 0.0

    def test_horizon_mismatch_rejected(self):
        a = make_noise(seed=1, horizon=0.3)
        b = make_noise(seed=1, horizon=0.4)
        pa = picard.initial_iterate(a)
        pb = picard.initial_iterate(b)
        with pytest.raises(ValueError, match="horizon"):
            picard.supremum_distance(pa, pb)


class TestContraction:
    def test_profile_contracts_on_short_horizon(self):
        rep = picard.contraction_profile(
            BOX,
            SPEC,
            level=4.0,
            horizon=0.1,
            n_iterates=5,
            n_realizations=200,
            seed=99,
        )
        assert rep.distances.shape == (200, 5)
        means = rep.mean()
        assert means[1] > means[2] > means[3] > means[4]
        assert rep.nonincreasing_from(2)

    def test_settled_decisions_reach_exact_fixed_point(self):
        # an atom whose base did not move keeps its angle bit for bit,
        # so once the decisions settle the iterates coincide exactly
        noise = make_noise(seed=2024, index=99, horizon=0.5)
        paths = picard.picard_iterates(BOX, SPEC, noise, 10)
        changed = [
            k
            for k in range(1, 11)
            if not np.array_equal(paths[k].accepted, paths[k - 1].accepted)
        ]
        assert changed[-1] == 7
        assert picard.supremum_distance(paths[10], paths[9]) == 0.0

    def test_one_speed_bound_per_profile(self):
        class CountingBox(densities.BoxMaxwellianModel):
            speed_bound_calls = 0

            def speed_sq_bound(self, horizon):
                self.speed_bound_calls += 1
                return super().speed_sq_bound(horizon)

        box = CountingBox(side=1.0, vel_var=1.0)
        picard.contraction_profile(
            box, SPEC, 4.0, 0.1, n_iterates=2, n_realizations=5, seed=1
        )
        assert box.speed_bound_calls == 1

    def test_late_iterates_nearly_coincide(self):
        noise = make_noise(seed=55, horizon=0.15)
        paths = picard.picard_iterates(BOX, SPEC, noise, 8)
        d_late = picard.supremum_distance(paths[8], paths[7])
        d_early = picard.supremum_distance(paths[2], paths[1])
        if d_early > 0:
            assert d_late < 0.2 * d_early or d_late < 1e-10

    def test_needs_two_passes(self):
        with pytest.raises(ValueError, match="two passes"):
            picard.contraction_profile(
                BOX, SPEC, 4.0, 0.1, n_iterates=1, n_realizations=2, seed=0
            )

    def test_passes_to_fixed_point(self):
        rep = picard.ContractionReport(
            distances=np.array(
                [[3.0, 0.0, 0.0], [2.0, 1.0, 0.0], [1.0, 0.5, 1e-300]]
            )
        )
        assert rep.passes_to_fixed_point().tolist() == [2, 3, 0]

    def test_fixed_point_is_kept(self):
        # the map is deterministic, so a reached fixed point stays put
        rep = picard.contraction_profile(
            BOX, SPEC, 4.0, 0.2, n_iterates=12, n_realizations=40, seed=17
        )
        reached = rep.passes_to_fixed_point()
        assert np.any(reached > 0)
        for row, k in zip(rep.distances, reached):
            if k:
                assert np.all(row[k - 1 :] == 0.0) and np.all(row[: k - 1] > 0.0)
            else:
                assert np.all(row > 0.0)

    def test_report_shapes(self):
        rep = picard.ContractionReport(
            distances=np.array([[3.0, 2.0, 1.0], [2.0, 1.5, 1.0]])
        )
        drops, se = rep.paired_decrements(start=1)
        assert drops.shape == (2,) and se.shape == (2,)
        assert_allclose(drops, [0.75, 0.75])
        assert rep.nonincreasing_from(1)


class TestOneRealization:
    def test_contraction_profile_needs_two_realizations(self):
        with pytest.raises(ValueError, match="at least two realizations, got 1"):
            picard.contraction_profile(
                BOX, SPEC, 4.0, 0.1, n_iterates=3, n_realizations=1, seed=0
            )
