"""Tests for the frozen-noise Picard iteration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas import densities, kernels, picard
from boltzgas.engine import EnvelopeError, majorant_rate
from boltzgas.rng import stream
from boltzgas.truncation import alpha_j, project_j


SPEC = kernels.KernelSpec(gamma=1.0, c=1.0, angular=kernels.HARD_SPHERE)
BOX = densities.BoxMaxwellianModel(side=1.0, vel_var=1.0)


def make_noise(seed=5, index=0, level=4.0, horizon=0.3):
    return picard.frozen_noise(BOX, SPEC, level, horizon, stream(seed, index))


class TestFrozenNoise:
    def test_reproducible(self):
        a = make_noise()
        b = make_noise()
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.thresholds, b.thresholds)

    def test_atom_count_matches_majorant_rate(self):
        horizon = 0.5
        rate = majorant_rate(BOX, SPEC, 4.0, horizon)
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
        with pytest.raises(ValueError, match="level"):
            picard.frozen_noise(BOX, SPEC, 0.5, 1.0, stream(1, 0))


class TestInitialIterate:
    def test_constant_pair(self):
        noise = make_noise()
        zero = picard.initial_iterate(noise)
        assert zero.n_jumps == 0
        for t in [0.0, 0.1, noise.horizon]:
            assert_allclose(zero.position(t), noise.x0, rtol=0, atol=0)
            assert_allclose(zero.velocity(t), noise.z0, rtol=0, atol=0)

    def test_atom_views_are_constant(self):
        noise = make_noise(seed=7)
        zero = picard.initial_iterate(noise)
        assert np.all(zero.z_left == noise.z0)
        assert np.all(zero.x_at == noise.x0)
        assert np.array_equal(zero.psi, noise.phis)


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
            expected = curr.seg_velocities[jump - 1] + kick
            assert np.array_equal(curr.seg_velocities[jump], expected)
        assert jump == curr.n_jumps

    def test_position_integrates_own_velocity(self):
        noise = make_noise(seed=22)
        paths = picard.picard_iterates(BOX, SPEC, noise, 2)
        path = paths[2]
        for k in range(1, len(path.seg_times)):
            drift = path.seg_positions[k - 1] + (
                path.seg_times[k] - path.seg_times[k - 1]
            ) * path.seg_velocities[k - 1]
            assert np.array_equal(path.seg_positions[k], drift)

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
            assert curr.accepted[a] == (noise.thresholds[a] <= intensity)


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
        def straight(v, slope_on=True):
            v = np.asarray(v, dtype=np.float64)
            return picard.PicardPath(
                seg_times=np.array([0.0]),
                seg_positions=np.zeros((1, 3)),
                seg_velocities=v[np.newaxis],
                slopes=v[np.newaxis] if slope_on else np.zeros((1, 3)),
                horizon=2.0,
                accepted=np.zeros(0, dtype=bool),
                z_left=np.zeros((0, 3)),
                x_at=np.zeros((0, 3)),
                psi=np.zeros(0),
                base_z_left=np.zeros((0, 3)),
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
        assert changed[-1] == 6
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

    def test_report_shapes(self):
        rep = picard.ContractionReport(
            distances=np.array([[3.0, 2.0, 1.0], [2.0, 1.5, 1.0]])
        )
        drops, se = rep.paired_decrements(start=1)
        assert drops.shape == (2,) and se.shape == (2,)
        assert_allclose(drops, [0.75, 0.75])
        assert rep.nonincreasing_from(1)
