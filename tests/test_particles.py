"""Tests for the interacting particle ensemble."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas import kernels, particles
from boltzgas.densities import MollifiedEmpiricalModel, maxwell_abs_moment, wrap_position
from boltzgas.engine import EnvelopeError, check_envelope
from boltzgas.geometry import deflection_alpha
from boltzgas.kernels import angular_mass, sample_theta, sigma_weight
from boltzgas.quadrature import pair_blocks
from boltzgas.rng import stream


FLAT = kernels.KernelSpec(gamma=0.0, c=8.0, angular=kernels.HARD_SPHERE)
LINEAR = kernels.KernelSpec(gamma=1.0, c=4.0, angular=kernels.HARD_SPHERE)


def small_ensemble(seed=1, n=40, mode=particles.ONE_SIDED, **kw):
    return particles.maxwellian_ensemble(n, stream(seed, 0), mode=mode, **kw)


def reference_step(ens, spec, dt, rng):
    """The sequential window: one fired particle at a time.

    The loop ``step_ensemble`` replaced with one array pass per block of
    fired rows, kept as the reference its bytes are compared with.
    """
    if spec.gamma < 0.0:
        raise ValueError("soft potentials admit no candidate envelope")
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    out = ens.copy()
    n = out.n
    prefactor = particles._pair_rate(out, spec, angular_mass(spec))
    xi_mean = maxwell_abs_moment(1.0, 1)
    # one-sided rows average W over the partner's mollifier shift h_v xi
    shift = out.h_v * xi_mean if out.mode == particles.ONE_SIDED else 0.0
    pair = (out.h_x, out.side, spec, shift)

    remaining = float(dt)
    while remaining > 0.0:
        pos_frozen = out.positions.copy()
        vel_frozen = out.velocities.copy()
        rates = prefactor * np.concatenate([
            particles._pair_weights(pos_frozen, vel_frozen, rows, *pair).sum(axis=1)
            for rows in pair_blocks(n, n)
        ])
        peak = rates.max()
        if peak <= 0.0:
            sub = remaining
        else:
            sub = min(remaining, particles._MAX_WINDOW_PROBABILITY / peak)
        out.positions = wrap_position(
            out.positions + sub * out.velocities, out.side
        )
        out.time += sub
        remaining -= sub

        fires = np.nonzero(rng.random(n) < rates * sub)[0]
        for block in pair_blocks(len(fires), n):
            # candidate law entirely from the frozen snapshot
            rows = particles._pair_weights(pos_frozen, vel_frozen, fires[block], *pair)
            for i, row in zip(fires[block], rows):
                total = row.sum()
                if total <= 0.0:
                    continue
                j = int(np.searchsorted(np.cumsum(row), rng.random() * total))
                gap = float(np.linalg.norm(vel_frozen[j] - vel_frozen[i]))
                v_cand, speed = vel_frozen[j], gap
                if out.mode == particles.ONE_SIDED:
                    if spec.gamma == 0.0:
                        xi = rng.normal(size=3)
                    else:
                        # the envelope c W(gap + h_v |xi|) is affine in
                        # |xi|; drawing xi in proportion to it makes its
                        # mean the pair weight W(gap + h_v E|xi|)
                        xi = particles._sample_xi(
                            rng, sigma_weight(spec, gap), out.h_v * xi_mean
                        )
                    v_cand = v_cand + out.h_v * xi
                    speed = gap + out.h_v * float(np.linalg.norm(xi))
                envelope = spec.c * sigma_weight(spec, speed)

                rel_speed = float(np.linalg.norm(v_cand - vel_frozen[i]))
                intensity = particles.sigma(spec, rel_speed)
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
                    v_cand if out.mode == particles.ONE_SIDED else out.velocities[j],
                    theta,
                    phi,
                )
                out.velocities[i] = out.velocities[i] + kick
                if out.mode == particles.SYMMETRIC_PAIR:
                    out.velocities[j] = out.velocities[j] - kick
    return out


class TestEnsembleValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            particles.ParticleEnsemble(
                positions=np.zeros((4, 3)),
                velocities=np.zeros((5, 3)),
                h_x=0.1,
                h_v=0.1,
            )

    def test_single_particle_rejected(self):
        with pytest.raises(ValueError, match="two particles"):
            particles.ParticleEnsemble(
                positions=np.zeros((1, 3)),
                velocities=np.zeros((1, 3)),
                h_x=0.1,
                h_v=0.1,
            )

    def test_degenerate_bandwidth_rejected(self):
        for h_x, h_v in [(0.0, 0.1), (0.1, -1.0)]:
            with pytest.raises(ValueError, match="bandwidths"):
                particles.ParticleEnsemble(
                    positions=np.zeros((3, 3)),
                    velocities=np.zeros((3, 3)),
                    h_x=h_x,
                    h_v=h_v,
                )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            particles.ParticleEnsemble(
                positions=np.zeros((3, 3)),
                velocities=np.zeros((3, 3)),
                h_x=0.1,
                h_v=0.1,
                mode="pairwise",
            )

    def test_positions_wrapped_into_box(self):
        ens = particles.ParticleEnsemble(
            positions=[[1.3, -0.2, 0.5], [0.1, 0.9, 2.0]],
            velocities=np.zeros((2, 3)),
            h_x=0.1,
            h_v=0.1,
            side=1.0,
        )
        assert np.all((ens.positions >= 0.0) & (ens.positions < 1.0))

    def test_copy_is_independent(self):
        ens = small_ensemble()
        dup = ens.copy()
        dup.velocities[0, 0] += 1.0
        assert ens.velocities[0, 0] != dup.velocities[0, 0]

    def test_momentum_and_energy(self):
        ens = particles.ParticleEnsemble(
            positions=np.zeros((2, 3)),
            velocities=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
            h_x=0.1,
            h_v=0.1,
        )
        assert_allclose(ens.momentum(), [1.0, 2.0, 0.0])
        assert ens.energy() == 5.0


class TestDefaultBandwidths:
    def test_scaling_exponent(self):
        hx1, hv1 = particles.default_bandwidths(100)
        hx2, hv2 = particles.default_bandwidths(100 * 2**7)
        assert_allclose(hx1 / hx2, 2.0, rtol=1e-12)
        assert_allclose(hv1 / hv2, 2.0, rtol=1e-12)

    def test_dimension_scales(self):
        hx, hv = particles.default_bandwidths(128, side=2.0, vel_var=4.0)
        assert_allclose(hx, 2.0 * 0.25 * 0.5)
        assert_allclose(hv, 2.0 * 0.5)

    def test_too_few_particles(self):
        with pytest.raises(ValueError, match="two particles"):
            particles.default_bandwidths(1)


class TestSymmetricConservation:
    def test_momentum_and_energy_invariant(self):
        rng = stream(11, 0)
        ens = particles.maxwellian_ensemble(
            60, rng, mode=particles.SYMMETRIC_PAIR
        )
        p0 = ens.momentum()
        e0 = ens.energy()
        out = ens
        moved = False
        for _ in range(30):
            out = particles.step_ensemble(out, LINEAR, 0.05, rng)
            assert np.abs(out.momentum() - p0).max() < 1e-12 * max(1.0, e0)
            assert abs(out.energy() - e0) < 1e-12 * e0
            moved = moved or not np.array_equal(
                out.velocities, ens.velocities
            )
        assert moved, "no collision fired in 30 steps"

    def test_long_run_roundoff_stays_small(self):
        rng = stream(12, 0)
        ens = particles.maxwellian_ensemble(
            20, rng, mode=particles.SYMMETRIC_PAIR
        )
        e0 = ens.energy()
        out = ens
        for _ in range(400):
            out = particles.step_ensemble(out, FLAT, 0.02, rng)
        assert abs(out.energy() - e0) / e0 < 1e-9


class TestOneSidedEnergyRate:
    def test_finite_difference_matches_formula(self):
        rng = stream(4, 0)
        n = 200
        ens = particles.ParticleEnsemble(
            positions=rng.uniform(0.0, 1.0, (n, 3)),
            velocities=rng.normal(0.0, 0.05, (n, 3)),
            h_x=0.1,
            h_v=0.3,
            side=1.0,
            mode=particles.ONE_SIDED,
        )
        predicted = particles.ensemble_energy_rate(ens, FLAT)
        dt = 0.01
        reps = 150
        diffs = np.empty(reps)
        for i in range(reps):
            out = particles.step_ensemble(ens, FLAT, dt, stream(50, i))
            diffs[i] = (out.energy() - ens.energy()) / dt
        se = diffs.std(ddof=1) / math.sqrt(reps)
        assert abs(diffs.mean() - predicted) < 3.0 * se

    def test_symmetric_mode_rate_vanishes(self):
        ens = small_ensemble(seed=3, n=50, mode=particles.SYMMETRIC_PAIR)
        rate = particles.ensemble_energy_rate(ens, FLAT)
        scale = ens.energy() * (2.0 * math.pi * 8.0)
        assert abs(rate) < 1e-12 * scale

    def test_requires_flat_cross_section(self):
        ens = small_ensemble(seed=3, n=10)
        with pytest.raises(ValueError, match="gamma = 0"):
            particles.ensemble_energy_rate(ens, LINEAR)

    def test_matched_temperature_near_stationary(self):
        # with a small velocity bandwidth the mollification bias is
        # tiny and a thermalized ensemble holds its energy in the mean
        ens = particles.maxwellian_ensemble(
            100, stream(2, 0), h_v=0.05, mode=particles.ONE_SIDED
        )
        predicted = particles.ensemble_energy_rate(ens, FLAT)
        horizon = 0.1
        reps = 60
        drifts = np.empty(reps)
        for i in range(reps):
            out = particles.step_ensemble(ens, FLAT, horizon, stream(90, i))
            drifts[i] = out.energy() - ens.energy()
        se = drifts.std(ddof=1) / math.sqrt(reps)
        assert abs(drifts.mean() - predicted * horizon) < 3.0 * se
        # and the drift itself is a tiny fraction of the total energy
        assert abs(drifts.mean()) < 0.02 * ens.energy()


class TestStepMechanics:
    def test_zero_dt_is_identity(self):
        ens = small_ensemble()
        out = particles.step_ensemble(ens, FLAT, 0.0, stream(1, 1))
        assert np.array_equal(out.positions, ens.positions)
        assert np.array_equal(out.velocities, ens.velocities)
        assert out.time == ens.time

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            particles.step_ensemble(small_ensemble(), FLAT, -0.1, stream(1, 1))

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_nonfinite_dt_rejected(self, dt):
        # nan used to return the state unadvanced, inf to never return
        with pytest.raises(ValueError, match="nonnegative"):
            particles.step_ensemble(small_ensemble(), FLAT, dt, stream(1, 1))

    def test_soft_potential_rejected(self):
        soft = kernels.KernelSpec(
            gamma=-0.5, c=1.0, angular=kernels.HARD_SPHERE
        )
        with pytest.raises(ValueError, match="soft"):
            particles.step_ensemble(small_ensemble(), soft, 0.1, stream(1, 1))

    def test_free_streaming_between_collisions(self):
        # a near-total angular cutoff suppresses every collision, so the
        # step is pure transport with periodic wrapping
        quiet = kernels.KernelSpec(
            gamma=1.0,
            c=1.0,
            angular=kernels.HARD_SPHERE,
            epsilon=math.pi - 1e-9,
        )
        ens = particles.ParticleEnsemble(
            positions=[[0.9, 0.5, 0.5], [0.1, 0.5, 0.5]],
            velocities=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            h_x=0.1,
            h_v=0.1,
            side=1.0,
        )
        out = particles.step_ensemble(ens, quiet, 0.3, stream(5, 0))
        assert_allclose(out.positions[0], [0.2, 0.5, 0.5], atol=1e-12)
        assert np.array_equal(out.velocities, ens.velocities)

    def test_violated_envelope_is_an_envelope_error(self, monkeypatch):
        # a cross section above its envelope must stop the step, never
        # thin against a bound that no longer dominates
        monkeypatch.setattr(
            particles, "sigma", lambda spec, r: 2.0 * kernels.sigma(spec, r)
        )
        ens = small_ensemble(seed=3, mode=particles.SYMMETRIC_PAIR)
        with pytest.raises(EnvelopeError, match="exceeds envelope"):
            particles.step_ensemble(ens, LINEAR, 0.2, stream(3, 1))

    def test_deterministic_given_stream(self):
        ens = small_ensemble(seed=6, n=60)
        a = particles.step_ensemble(ens, FLAT, 0.2, stream(9, 0))
        b = particles.step_ensemble(ens, FLAT, 0.2, stream(9, 0))
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.positions, b.positions)
        c = particles.step_ensemble(ens, FLAT, 0.2, stream(9, 1))
        assert not np.array_equal(a.velocities, c.velocities)

    def test_time_advances_by_dt(self):
        ens = small_ensemble()
        out = particles.step_ensemble(ens, FLAT, 0.37, stream(2, 2))
        assert_allclose(out.time, 0.37, rtol=0, atol=1e-12)

    def test_fractional_gamma_steps_run(self):
        spec = kernels.KernelSpec(
            gamma=0.4, c=1.0, angular=kernels.POWER_LAW, nu=0.5, epsilon=0.05
        )
        out = particles.step_ensemble(
            small_ensemble(seed=7, n=30), spec, 0.2, stream(7, 1)
        )
        assert out.time > 0.0


def assert_same_ensemble(a, b):
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.velocities.tobytes() == b.velocities.tobytes()
    assert a.time == b.time


def step_both(ens, spec, dt, seed, n_steps):
    """Run ``step_ensemble`` and the reference side by side, byte for byte.

    Both draw from copies of one stream, which must end in one state.
    """
    rng_a, rng_b = stream(seed, 1), stream(seed, 1)
    a = b = ens
    for _ in range(n_steps):
        a = particles.step_ensemble(a, spec, dt, rng_a)
        b = reference_step(b, spec, dt, rng_b)
        assert_same_ensemble(a, b)
    assert rng_a.random() == rng_b.random()
    return a


class TestBatchedWindow:
    """One array pass per block of fired rows against the sequential loop."""

    @pytest.mark.parametrize("n", [2, 3, 40, 160])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mode", [particles.ONE_SIDED, particles.SYMMETRIC_PAIR])
    def test_hard_sphere_matches_sequential_loop(self, mode, gamma, n):
        spec = kernels.KernelSpec(gamma=gamma, c=2.0, angular=kernels.HARD_SPHERE)
        ens = small_ensemble(seed=n, n=n, mode=mode)
        out = step_both(ens, spec, 0.1, seed=n, n_steps=4)
        assert not np.array_equal(out.velocities, ens.velocities)

    @pytest.mark.parametrize("n", [3, 40, 160])
    def test_one_sided_power_law_matches_sequential_loop(self, n):
        spec = kernels.KernelSpec(
            gamma=0.5, c=0.2, angular=kernels.POWER_LAW, nu=0.5, epsilon=1e-2
        )
        ens = small_ensemble(seed=n, n=n)
        out = step_both(ens, spec, 0.1, seed=n, n_steps=3)
        assert not np.array_equal(out.velocities, ens.velocities)

    def test_symmetric_power_law_within_roundoff(self):
        # the angles come from one array call, whose power rounds
        # differently from the scalar one in the last bit; later windows
        # stream on those velocities
        spec = kernels.KernelSpec(
            gamma=1.0, c=0.2, angular=kernels.POWER_LAW, nu=0.5, epsilon=1e-2
        )
        ens = small_ensemble(seed=5, n=80, mode=particles.SYMMETRIC_PAIR)
        rng_a, rng_b = stream(5, 1), stream(5, 1)
        a = particles.step_ensemble(ens, spec, 0.1, rng_a)
        b = reference_step(ens, spec, 0.1, rng_b)
        assert not np.array_equal(a.velocities, ens.velocities)
        for got, want in ((a.velocities, b.velocities), (a.positions, b.positions)):
            assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("mode", [particles.ONE_SIDED, particles.SYMMETRIC_PAIR])
    def test_two_rate_blocks(self, mode):
        n = 1500
        assert len(list(pair_blocks(n, n))) == 2
        ens = small_ensemble(seed=15, n=n, mode=mode)
        out = step_both(ens, LINEAR, 0.002, seed=15, n_steps=1)
        assert not np.array_equal(out.velocities, ens.velocities)

    def test_shared_particle_takes_a_second_wave(self, monkeypatch):
        # any two pairs of three particles share one, so a window with
        # two accepted pairs must kick them one wave after the other
        waves = []
        batched = particles._waves

        def spy(i, j):
            waves.append(batched(i, j))
            return waves[-1]

        monkeypatch.setattr(particles, "_waves", spy)
        ens = particles.ParticleEnsemble(
            positions=[[0.45, 0.5, 0.5], [0.5, 0.55, 0.5], [0.5, 0.5, 0.45]],
            velocities=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.5, 1.0]],
            h_x=0.2,
            h_v=0.1,
            mode=particles.SYMMETRIC_PAIR,
        )
        step_both(ens, LINEAR, 0.5, seed=3, n_steps=4)
        assert max(len(w) for w in waves) >= 2

    def test_fired_row_with_zero_total_draws_nothing(self, monkeypatch):
        # a symmetric row at gamma = 1 sums to zero when the particle
        # moves with all its neighbours, but the rate pass never fires
        # such a row, so the fired-row pass zeroes the even particles'
        # rows itself
        zeroed = []
        weights = particles._pair_weights

        def patched(pos, vel, rows, *pair):
            out = weights(pos, vel, rows, *pair)
            if isinstance(rows, np.ndarray):
                even = rows % 2 == 0
                out[even] = 0.0
                zeroed.append(np.count_nonzero(even))
            return out

        monkeypatch.setattr(particles, "_pair_weights", patched)
        for mode in (particles.ONE_SIDED, particles.SYMMETRIC_PAIR):
            zeroed.clear()
            ens = small_ensemble(seed=9, n=40, mode=mode)
            out = step_both(ens, LINEAR, 0.1, seed=9, n_steps=2)
            assert sum(zeroed) > 0
            assert not np.array_equal(out.velocities, ens.velocities)

    @pytest.mark.parametrize("mode", [particles.ONE_SIDED, particles.SYMMETRIC_PAIR])
    def test_violated_envelope_names_the_same_row(self, monkeypatch, mode):
        monkeypatch.setattr(
            particles, "sigma", lambda spec, r: 2.0 * kernels.sigma(spec, r)
        )
        ens = small_ensemble(seed=3, mode=mode)
        messages = []
        for step in (particles.step_ensemble, reference_step):
            with pytest.raises(EnvelopeError, match="exceeds envelope") as err:
                step(ens, LINEAR, 0.2, stream(3, 1))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestOneSidedProposal:
    def test_fractional_gamma_candidate_law(self):
        # Two particles at rest at one position: a one-sided kick of
        # particle i is alpha(0, h_v xi, theta, phi) at rate
        # 2 pi c K(0) sigma(h_v |xi|) N(xi) Q(dtheta), so after one window
        # of length dt, E|v_i'|^2 = dt 2 pi c K(0) beta h_v^(2+g) E|xi|^(2+g)
        # with beta = int sin^2(theta/2) Q(dtheta).  Both particles see
        # the same law independently, so their squared speeds pool.
        spec = kernels.KernelSpec(gamma=0.5, c=1.0, angular=kernels.HARD_SPHERE)
        h_x, h_v = 0.1, 0.1
        ens = particles.ParticleEnsemble(
            positions=np.full((2, 3), 0.5),
            velocities=np.zeros((2, 3)),
            h_x=h_x,
            h_v=h_v,
        )
        k0 = (2.0 * math.pi * h_x**2) ** -1.5
        peak = 2.0 * math.pi * spec.c * k0 * (1.0 + h_v * maxwell_abs_moment(1, 1))
        dt = 0.1 / peak
        beta = kernels.angular_weighted_mass(spec, "sin2_half")
        expected = (
            dt * 2.0 * math.pi * spec.c * k0 * beta
            * h_v ** (2.0 + spec.gamma) * maxwell_abs_moment(1, 2.0 + spec.gamma)
        )
        rng = stream(41, 0)
        sq = np.concatenate([
            np.sum(particles.step_ensemble(ens, spec, dt, rng).velocities ** 2, axis=1)
            for _ in range(20000)
        ])
        se = sq.std() / math.sqrt(sq.size)
        assert abs(sq.mean() - expected) < 4.0 * se


class TestPartnerLaw:
    def test_symmetric_kicked_pairs_follow_the_pair_weights(self):
        # Particles 0 and 1 straddle the periodic boundary: 0.1 apart as
        # a minimum image, 0.9 without it.  At gamma = 1 every candidate
        # of the hard-sphere kernel is accepted, so pair {i, j} is kicked
        # at a rate proportional to K(x_i - x_j) |v_i - v_j|.  A window
        # of 0.005 kicks a pair in 8% of the steps and two pairs so
        # rarely that the law of the kicked pair moves by at most 0.0012,
        # against a standard error near 0.015 for the ~980 kicks of
        # 12 000 steps; the band is 4 standard errors.
        h_x = 0.3
        ens = particles.ParticleEnsemble(
            positions=[[0.05, 0.5, 0.5], [0.95, 0.5, 0.5], [0.5, 0.5, 0.5]],
            velocities=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
            h_x=h_x,
            h_v=0.1,
            mode=particles.SYMMETRIC_PAIR,
        )
        spec = kernels.KernelSpec(gamma=1.0, c=1.0, angular=kernels.HARD_SPHERE)
        pairs = [(0, 1), (0, 2), (1, 2)]
        distances = np.array([0.1, 0.45, 0.45])
        gaps = np.array([1.0, 2.0, math.sqrt(5.0)])
        weights = np.exp(-(distances**2) / (2.0 * h_x**2)) * gaps
        expected = weights / weights.sum()

        rng = stream(44, 0)
        counts = dict.fromkeys(pairs, 0)
        for _ in range(12000):
            out = particles.step_ensemble(ens, spec, 0.005, rng)
            moved = np.any(out.velocities != ens.velocities, axis=1)
            if np.count_nonzero(moved) == 2:
                counts[tuple(np.nonzero(moved)[0])] += 1
        n_kicks = sum(counts.values())
        observed = np.array([counts[pair] for pair in pairs]) / n_kicks
        se = np.sqrt(expected * (1.0 - expected) / n_kicks)
        assert np.all(np.abs(observed - expected) < 4.0 * se)


class TestPairWeights:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_planes_match_last_axis_formulas_bitwise(self, gamma):
        ens = small_ensemble(seed=21, n=60)
        pos, vel, h_x = ens.positions, ens.velocities, ens.h_x
        spec = kernels.KernelSpec(gamma=gamma, c=2.0, angular=kernels.HARD_SPHERE)
        for rows in (slice(0, 60), slice(10, 25), np.array([59, 0, 17, 3])):
            delta = pos[rows, np.newaxis] - pos[np.newaxis]
            delta -= np.round(delta)
            kern = (2.0 * math.pi * h_x**2) ** -1.5 * np.exp(
                -0.5 * np.sum(delta * delta, axis=-1) / h_x**2
            )
            gaps = np.linalg.norm(vel[rows, np.newaxis] - vel[np.newaxis], axis=2)
            index = np.arange(60)[rows]
            for shift in (0.0, 0.4):
                want = kern * kernels.sigma_weight(spec, gaps + shift)
                want[np.arange(len(index)), index] = 0.0
                got = particles._pair_weights(pos, vel, rows, h_x, 1.0, spec, shift)
                assert np.array_equal(got, want)


class TestEvolveEnsemble:
    def test_snapshots_at_marks(self):
        ens = small_ensemble(seed=8, n=30)
        final, snaps = particles.evolve_ensemble(
            ens, FLAT, 0.5, 0.1, stream(8, 1), snapshot_times=[0.2, 0.4]
        )
        assert [t for t, _ in snaps] == [0.2, 0.4]
        assert_allclose(final.time, 0.5)
        for t, snap in snaps:
            assert_allclose(snap.time, t)

    def test_horizon_snapshot_returned_once(self):
        ens = small_ensemble(seed=8, n=30)
        final, snaps = particles.evolve_ensemble(
            ens, FLAT, 0.5, 0.1, stream(8, 1), snapshot_times=[0.2, 0.5]
        )
        assert [t for t, _ in snaps] == [0.2, 0.5]
        assert np.array_equal(snaps[-1][1].velocities, final.velocities)

    def test_horizon_before_current_time_rejected(self):
        ens = small_ensemble()
        ens.time = 1.0
        with pytest.raises(ValueError, match="horizon"):
            particles.evolve_ensemble(ens, FLAT, 0.5, 0.1, stream(1, 1))

    @pytest.mark.parametrize("dt", [0.0, math.nan])
    def test_bad_step_rejected(self, dt):
        # both used to loop forever
        with pytest.raises(ValueError, match="dt must be positive"):
            particles.evolve_ensemble(small_ensemble(), FLAT, 0.5, dt, stream(1, 1))

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            particles.evolve_ensemble(
                small_ensemble(), FLAT, math.inf, 0.1, stream(1, 1)
            )

    def test_no_snapshots_returns_final_only(self):
        ens = small_ensemble(seed=9, n=20)
        final, snaps = particles.evolve_ensemble(
            ens, FLAT, 0.3, 0.1, stream(9, 9)
        )
        assert snaps == []
        assert_allclose(final.time, 0.3)


class TestEmpiricalBridge:
    def test_snapshot_becomes_density_model(self):
        ens = small_ensemble(seed=10, n=300)
        model = ens.to_empirical_model()
        assert isinstance(model, MollifiedEmpiricalModel)
        assert model.box_side == ens.side
        x = np.array([[0.5, 0.5, 0.5]])
        v = np.array([[0.0, 0.0, 0.0]])
        assert model.evaluate(0.0, x, v)[0] > 0.0

    def test_wide_bandwidth_rejected_by_bridge(self):
        ens = small_ensemble(seed=10, n=20, h_x=0.3)
        with pytest.raises(ValueError, match="width"):
            ens.to_empirical_model()
