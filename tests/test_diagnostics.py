"""Tests for weak-form residuals, entropy and exit diagnostics."""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from boltzgas import densities, diagnostics, engine, kernels, particles, quadrature
from boltzgas.diagnostics import (
    CompactBump,
    Constant,
    Energy,
    LinearMomentum,
    Quadratic,
    ResidualReport,
    collision_action,
    collision_invariant_residual,
    collision_symmetry_gap,
    energy_flow_values,
    energy_rhs_report,
    entropy_bias_budget,
    exit_statistics,
    gaussian_kl,
    moment_report,
    relative_entropy_kde,
    smooth_bump,
    weak_residual,
)
from boltzgas.geometry import deflection_alpha
from boltzgas.quadrature import (
    gauss_hermite_3d,
    gauss_legendre,
    radial_gaussian_moment,
)
from boltzgas.rng import stream

MAXWELL_KERNEL = kernels.KernelSpec(
    gamma=0.0, c=1.1, angular=kernels.HARD_SPHERE
)
HS_KERNEL = kernels.KernelSpec(gamma=1.0, c=0.7, angular=kernels.HARD_SPHERE)
GRAZING_KERNEL = kernels.KernelSpec(
    gamma=0.5, c=0.4, angular=kernels.POWER_LAW, nu=0.5
)

BOX = densities.BoxMaxwellianModel(side=2.0, vel_var=0.8)
MIXED_A = np.array([[0.7, 0.3, 0.0], [0.3, -0.2, 0.5], [0.0, 0.5, 1.1]])


def _action_oracle(model, kernel, psi, t, z, n_h=24, n_theta=48, n_phi=8):
    """Direct quadrature of the collision action at one velocity.

    Shares nothing with the closed-form route beyond the deflection map:
    the partner velocity uses a tensor Gauss-Hermite rule, the polar
    angle a Gauss-Legendre rule against the angular density, and the
    azimuth the periodic trapezoid rule, which is exact here because the
    integrand is a trigonometric polynomial of degree two.
    """
    z = np.asarray(z, dtype=np.float64).reshape(3)
    lo = kernel.epsilon if kernel.epsilon > 0.0 else 0.0
    th, wth = gauss_legendre(n_theta, lo, math.pi)
    if kernel.angular == kernels.HARD_SPHERE:
        dens = np.sin(th / 2.0) * np.cos(th / 2.0)
    else:
        dens = th ** (-1.0 - kernel.nu)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi

    total = 0.0
    for comp in model.radial_components(t):
        nodes, wts = gauss_hermite_3d(n_h, comp.variance)
        if comp.power2m == 1:
            wts = wts * np.sum(nodes * nodes, axis=1) / (3.0 * comp.variance)
        speed = np.linalg.norm(nodes - z[None, :], axis=1)
        rate = kernel.c * speed**kernel.gamma
        v_rep = np.repeat(nodes, n_phi, axis=0)
        phi_rep = np.tile(phi, len(nodes))
        z_rep = np.broadcast_to(z, v_rep.shape)
        before = psi.value(None, z[None])[0]
        acc = np.zeros(len(nodes))
        for k in range(n_theta):
            alpha = deflection_alpha(z_rep, v_rep, th[k], phi_rep)
            gain = psi.value(None, z_rep + alpha) - before
            per_v = gain.reshape(len(nodes), n_phi).mean(axis=1)
            acc += (wth[k] * dens[k] * 2.0 * math.pi) * per_v
        total += comp.weight * float(np.sum(wts * rate * acc))
    return total * model.side**-3


class TestSmoothBump:
    def test_values_and_support(self):
        assert smooth_bump(0.0) == 1.0
        assert smooth_bump(1.0) == 0.0
        assert smooth_bump(-1.5) == 0.0
        mid = smooth_bump(0.5)
        assert_allclose(mid, math.exp(1.0 - 1.0 / 0.75), rtol=1e-15)

    def test_even_and_monotone_on_radius(self):
        u = np.linspace(0.0, 0.999, 200)
        vals = smooth_bump(u)
        assert np.all(np.diff(vals) < 0.0)
        assert_allclose(smooth_bump(-u), vals, rtol=0.0, atol=0.0)


class TestObservables:
    def test_constant_is_flat_and_inactive(self):
        psi = Constant(level=2.5)
        z = np.random.default_rng(1).normal(size=(4, 3))
        assert_allclose(psi.value(None, z), 2.5)
        assert not psi.collision_active
        assert psi.quad_matrix is not None

    def test_momentum_value_and_gradient(self):
        psi = LinearMomentum([0.0, 2.0, -1.0])
        z = np.array([[1.0, 2.0, 3.0]])
        assert_allclose(psi.value(None, z), [1.0])
        assert psi.collision_active

    def test_energy_matches_identity_quadratic(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 3))
        ener = Energy()
        quad = Quadratic(np.eye(3))
        assert_allclose(ener.value(None, z), quad.value(None, z), rtol=1e-15)

    def test_rows_equal_one_row_calls(self):
        psi = Quadratic(MIXED_A, vector=[0.3, -1.1, 0.7], offset=0.2)
        z = np.random.default_rng(6).normal(size=(49, 3))
        rows = psi.value(None, z)
        for k in range(len(z)):
            assert rows[k] == psi.value(None, z[k : k + 1])[0], k

    def test_quadratic_symmetrises_matrix(self):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        psi = Quadratic(a)
        assert_allclose(psi.quad_matrix, 0.5 * (a + a.T))
        z = np.array([[1.0, 2.0, 0.0]])
        assert_allclose(psi.value(None, z), [2.0])

    def test_bump_outside_support_is_flat_zero(self):
        psi = CompactBump(center=np.zeros(3), radius=0.5)
        far = np.array([[2.0, 0.0, 0.0]])
        assert psi.value(far, None)[0] == 0.0
        assert not psi.collision_active

    def test_bump_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            CompactBump(center=np.zeros(3), radius=0.0)


class TestResidualReport:
    def test_verdict_combines_stderr_and_tolerance(self):
        rep = ResidualReport(
            operation="demo", lhs=1.0, rhs=0.9, stderr=0.02, tolerance=0.05
        )
        assert rep.difference == pytest.approx(0.1)
        assert rep.verdict
        tight = ResidualReport(
            operation="demo", lhs=1.0, rhs=0.9, stderr=0.01, tolerance=0.01
        )
        assert not tight.verdict

    def test_as_dict_round_trip(self):
        rep = ResidualReport(
            operation="demo",
            lhs=2.0,
            rhs=2.0,
            stderr=0.0,
            tolerance=1e-9,
            n_samples=7,
            details={"psi": "energy"},
        )
        doc = rep.as_dict()
        assert doc["verdict"] == "PASS"
        assert doc["difference"] == 0.0
        assert doc["n_samples"] == 7
        assert doc["details"] == {"psi": "energy"}


class TestCollisionActionOracle:
    def test_flat_kernel_matches_direct_quadrature(self):
        z = np.array([0.3, -0.2, 0.5])
        for psi in (
            Energy(),
            LinearMomentum([1.0, -0.5, 0.25]),
            Quadratic(MIXED_A, vector=[0.2, 0.0, -0.4]),
        ):
            closed = collision_action(BOX, MAXWELL_KERNEL, psi, 0.0, z)[0]
            direct = _action_oracle(BOX, MAXWELL_KERNEL, psi, 0.0, z)
            assert_allclose(closed, direct, rtol=1e-10)

    def test_speed_weighted_kernel_matches_loosely(self):
        # the oracle's tensor rule sees the |v - z| kink, so agreement
        # is limited by its own quadrature error, not the closed form
        z = np.array([0.6, 0.1, -0.3])
        psi = Quadratic(MIXED_A, vector=[0.1, -0.2, 0.3])
        closed = collision_action(BOX, HS_KERNEL, psi, 0.0, z)[0]
        direct = _action_oracle(BOX, HS_KERNEL, psi, 0.0, z, n_h=32)
        assert_allclose(closed, direct, rtol=1e-3)

    def test_relaxing_mixture_matches_direct_quadrature(self):
        bkw = densities.BKWModel(side=1.5, vel_var=0.9, c0=0.4, rate=1.0)
        z = np.array([-0.4, 0.2, 0.7])
        psi = Quadratic(MIXED_A)
        closed = collision_action(bkw, MAXWELL_KERNEL, psi, 0.3, z)[0]
        direct = _action_oracle(bkw, MAXWELL_KERNEL, psi, 0.3, z)
        assert_allclose(closed, direct, rtol=1e-9)

    def test_energy_equals_identity_quadratic(self):
        z = np.random.default_rng(4).normal(size=(5, 3))
        via_energy = collision_action(BOX, HS_KERNEL, Energy(), 0.0, z)
        via_quad = collision_action(BOX, HS_KERNEL, Quadratic(np.eye(3)), 0.0, z)
        assert_allclose(via_energy, via_quad, rtol=1e-13)

    def test_projection_is_identity_inside_the_ball(self):
        z = np.random.default_rng(5).normal(size=(4, 3))
        psi = Quadratic(MIXED_A, vector=[0.3, 0.1, 0.0])
        free = collision_action(BOX, HS_KERNEL, psi, 0.0, z, level=None)
        capped = collision_action(BOX, HS_KERNEL, psi, 0.0, z, level=8.0)
        assert_allclose(capped, free, rtol=0.0, atol=0.0)

    def test_projection_shrinks_fast_tails(self):
        z = np.array([[6.0, 0.0, 0.0]])
        psi = Energy()
        free = collision_action(BOX, HS_KERNEL, psi, 0.0, z, level=2.0)[0]
        raw = collision_action(BOX, HS_KERNEL, psi, 0.0, z, level=None)[0]
        # a fast particle loses energy; the truncated rate is milder
        assert raw < free < 0.0

    def test_position_only_observable_gives_zero(self):
        psi = CompactBump(center=np.zeros(3), radius=1.0)
        out = collision_action(BOX, HS_KERNEL, psi, 0.0, np.ones((3, 3)))
        assert_allclose(out, 0.0)

    def test_nonuniform_background_rejected(self):
        blob = densities.GaussianProductModel(vel_var=1.0, pos_var=1.0)
        with pytest.raises(ValueError, match="uniform"):
            collision_action(blob, HS_KERNEL, Energy(), 0.0, np.zeros(3))


class TestCollisionInvariants:
    @pytest.mark.parametrize(
        "psi",
        [
            Constant(),
            LinearMomentum([1.0, 0.0, 0.0]),
            LinearMomentum([0.0, 1.0, -1.0]),
            Energy(),
        ],
        ids=["constant", "momentum_x", "momentum_mixed", "energy"],
    )
    def test_box_background_annihilates_invariants(self, psi):
        rep = collision_invariant_residual(BOX, HS_KERNEL, psi)
        assert rep.verdict
        assert abs(rep.lhs) <= 1e-9

    def test_gaussian_blob_background(self):
        blob = densities.GaussianProductModel(vel_var=1.2, pos_var=0.6)
        rep = collision_invariant_residual(blob, HS_KERNEL, Energy())
        assert rep.verdict
        assert abs(rep.lhs) <= 1e-9

    def test_free_transport_overlap_weight(self):
        blob = densities.GaussianProductModel(
            vel_var=1.0, pos_var=0.5, drift="free_transport"
        )
        rep = collision_invariant_residual(blob, HS_KERNEL, Energy(), t=0.7)
        assert rep.verdict
        assert abs(rep.lhs) <= 1e-9

    def test_relaxing_mixture_background(self):
        bkw = densities.BKWModel(side=1.5, vel_var=0.9, c0=0.4, rate=1.0)
        rep = collision_invariant_residual(bkw, MAXWELL_KERNEL, Energy(), t=0.3)
        assert rep.verdict
        assert abs(rep.lhs) <= 1e-9

    def test_grazing_kernel_background(self):
        rep = collision_invariant_residual(
            BOX, GRAZING_KERNEL, LinearMomentum([0.0, 0.0, 1.0])
        )
        assert rep.verdict
        assert abs(rep.lhs) <= 1e-9

    def test_position_only_observable_rejected(self):
        bump = CompactBump(center=np.zeros(3), radius=1.0)
        with pytest.raises(ValueError, match="velocity observable"):
            collision_invariant_residual(BOX, HS_KERNEL, bump)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.1])
    def test_time_must_be_nonnegative_and_finite(self, t):
        # the box mixture does not depend on t, so a NaN time would pass
        with pytest.raises(ValueError, match="nonnegative and finite"):
            collision_invariant_residual(BOX, HS_KERNEL, Energy(), t=t)


class TestEnergyFlow:
    def test_cold_particle_heats_hot_particle_cools(self):
        cold = energy_flow_values(BOX, HS_KERNEL, np.zeros((1, 3)))[0]
        hot = energy_flow_values(BOX, HS_KERNEL, np.array([[3.0, 0.0, 0.0]]))[0]
        assert cold > 0.0
        assert hot < 0.0

    def test_equilibrium_sample_balances(self):
        rng = np.random.default_rng(6)
        sample = rng.normal(0.0, math.sqrt(BOX.vel_var), size=(4000, 3))
        rep = energy_rhs_report(BOX, HS_KERNEL, sample)
        assert rep.operation == "energy_exchange_rate"
        assert abs(rep.lhs) <= 3.0 * rep.stderr
        assert rep.n_samples == 4000

    def test_flow_depends_only_on_speed(self):
        speed = 1.7
        dirs = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, -0.8, 0.0]]
        )
        vals = energy_flow_values(BOX, HS_KERNEL, speed * dirs)
        assert_allclose(vals, vals[0], rtol=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            energy_flow_values(BOX, HS_KERNEL, np.empty((0, 3)))

    def test_report_with_per_row_levels_writes_as_json(self):
        sample = np.random.default_rng(14).normal(size=(50, 3))
        rep = energy_rhs_report(BOX, HS_KERNEL, sample, level=np.full(50, 2.0))
        assert rep.details["level"] == [2.0] * 50
        assert json.loads(json.dumps(rep.as_dict()))["details"]["level"] == [2.0] * 50
        scalar = energy_rhs_report(BOX, HS_KERNEL, sample, level=2.0)
        assert scalar.details["level"] == 2.0 and scalar.lhs == rep.lhs


@pytest.fixture(scope="module")
def box_ensemble():
    config = engine.SimConfig(horizon=0.4, level=4.0, escalate=False)
    trajectories, _ = engine.simulate_ensemble(
        BOX, HS_KERNEL, config, seed=20240817, n_paths=600
    )
    return trajectories


@pytest.fixture(scope="module")
def drift_ensemble():
    blob = densities.GaussianProductModel(
        vel_var=1.0, pos_var=0.5, drift="free_transport"
    )
    config = engine.SimConfig(horizon=0.3, collisions=False)
    trajectories, _ = engine.simulate_ensemble(
        blob, MAXWELL_KERNEL, config, seed=7, n_paths=120
    )
    return blob, trajectories


class TestWeakResidual:
    @pytest.mark.parametrize(
        "psi",
        [
            Energy(),
            LinearMomentum([1.0, 0.0, 0.0]),
            Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1]),
        ],
        ids=["energy", "momentum", "quadratic"],
    )
    def test_martingale_identity_on_box_ensemble(self, box_ensemble, psi):
        rep = weak_residual(box_ensemble, BOX, HS_KERNEL, psi)
        assert rep.n_samples == 600
        assert rep.verdict, rep.as_dict()

    def test_sub_horizon_window(self, box_ensemble):
        rep = weak_residual(box_ensemble, BOX, HS_KERNEL, Energy(), horizon=0.2)
        assert rep.details["horizon"] == 0.2
        assert rep.verdict, rep.as_dict()

    def test_constant_is_exactly_closed(self, box_ensemble):
        rep = weak_residual(box_ensemble, BOX, HS_KERNEL, Constant(3.0))
        assert rep.difference == 0.0
        assert rep.stderr == 0.0

    def test_transport_telescopes_for_position_bump(self, box_ensemble):
        bump = CompactBump(center=[0.2, 0.3, -0.1], radius=1.5)
        rep = weak_residual(box_ensemble, BOX, HS_KERNEL, bump)
        assert rep.difference == 0.0

    def test_collisionless_paths_close_exactly(self, drift_ensemble):
        blob, trajectories = drift_ensemble
        for psi in (Energy(), CompactBump(center=np.zeros(3), radius=2.0)):
            rep = weak_residual(
                trajectories, blob, MAXWELL_KERNEL, psi, collisions=False
            )
            assert rep.difference == 0.0

    def test_model_without_radial_mixture(self):
        snapshot = particles.maxwellian_ensemble(130, stream(1, 0))
        model = snapshot.to_empirical_model()
        config = engine.SimConfig(horizon=0.2, collisions=False)
        trajectories, _ = engine.simulate_ensemble(
            model, HS_KERNEL, config, seed=2, n_paths=10
        )
        bump = CompactBump(center=[0.5, 0.5, 0.5], radius=0.8)
        rep = weak_residual(trajectories, model, HS_KERNEL, bump)
        assert rep.difference == 0.0
        with pytest.raises(ValueError, match="MollifiedEmpiricalModel"):
            weak_residual(trajectories, model, HS_KERNEL, Energy())

    def test_window_beyond_horizon_rejected(self, box_ensemble):
        with pytest.raises(ValueError, match="horizon"):
            weak_residual(
                box_ensemble, BOX, HS_KERNEL, Energy(), horizon=0.9
            )

    def test_relaxing_background_rejected(self, box_ensemble):
        bkw = densities.BKWModel(side=2.0, vel_var=0.8, c0=0.4, rate=1.0)
        with pytest.raises(ValueError, match="constant over the window"):
            weak_residual(box_ensemble, bkw, MAXWELL_KERNEL, Energy())


def _symmetry_sides_oracle(theta, radii, n_radial, n_angle, n_phi):
    """Both sides of the symmetry integral through ``deflection_alpha``.

    Repeats every incoming pair ``n_phi`` times, sends the rows through
    the general deflection map and takes the post-collision speeds as
    norms: the same quadrature rule as ``collision_symmetry_gap``
    without its closed forms in the azimuth.
    """
    r1, r2, r3, r4 = radii
    ra, wa = gauss_legendre(n_radial, 0.0, max(r1, r3))
    rb, wb = gauss_legendre(n_radial, 0.0, max(r2, r4))
    chi, wchi = gauss_legendre(n_angle, 0.0, math.pi)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    ra_g, rb_g = (g.ravel() for g in np.meshgrid(ra, rb, indexing="ij"))
    base_w = np.outer(wa * 4.0 * math.pi * ra**2, wb * 2.0 * math.pi * rb**2)
    base_w = base_w.ravel()
    pre = np.repeat(smooth_bump(ra_g / r1) * smooth_bump(rb_g / r2), n_phi)
    swap_pre = np.repeat(smooth_bump(ra_g / r3) * smooth_bump(rb_g / r4), n_phi)
    a = np.zeros((ra_g.size, 3))
    a[:, 2] = ra_g
    lhs = rhs = 0.0
    for k in range(n_angle):
        c, s = math.cos(chi[k]), math.sin(chi[k])
        b = np.zeros((ra_g.size, 3))
        b[:, 0] = rb_g * s
        b[:, 2] = rb_g * c
        a_rep = np.repeat(a, n_phi, axis=0)
        b_rep = np.repeat(b, n_phi, axis=0)
        alpha = deflection_alpha(a_rep, b_rep, theta, np.tile(phi, ra_g.size))
        post_a = np.linalg.norm(a_rep + alpha, axis=1)
        post_b = np.linalg.norm(b_rep - alpha, axis=1)
        w_rows = np.repeat(base_w * wchi[k] * s, n_phi) * 2.0 * math.pi / n_phi
        lhs += np.sum(
            w_rows * pre * smooth_bump(post_a / r3) * smooth_bump(post_b / r4)
        )
        rhs += np.sum(
            w_rows * swap_pre * smooth_bump(post_a / r1) * smooth_bump(post_b / r2)
        )
    return lhs, rhs


class TestCollisionSymmetry:
    @pytest.mark.parametrize("theta", [0.05, 0.7, 2.2, math.pi])
    def test_closed_forms_match_deflection_oracle(self, theta):
        radii = (0.9, 1.6, 1.1, 1.9)
        rep = collision_symmetry_gap(theta, radii, n_radial=16, n_angle=8, n_phi=8)
        lhs, rhs = _symmetry_sides_oracle(theta, radii, 16, 8, 8)
        assert rep.lhs > 0.1
        assert rep.lhs == pytest.approx(lhs, rel=1e-13)
        assert rep.rhs == pytest.approx(rhs, rel=1e-13)

    def test_pre_post_change_of_variables(self):
        rep = collision_symmetry_gap(
            1.1, n_radial=96, n_angle=48, n_phi=48, tolerance=1e-7
        )
        assert rep.lhs > 0.1
        assert abs(rep.difference) <= 1e-7
        assert rep.verdict

    @pytest.mark.parametrize("theta", [np.nan, 0.0, -0.7, math.pi + 1e-9])
    def test_theta_must_lie_in_zero_to_pi(self, theta):
        # at a NaN angle both sides read 0 and would pass
        with pytest.raises(ValueError, match=r"theta must lie in \(0, pi\]"):
            collision_symmetry_gap(theta, n_radial=4, n_angle=4, n_phi=4)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.1])
    def test_radii_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            collision_symmetry_gap(
                0.7, (0.9, 1.6, radius, 1.9), n_radial=4, n_angle=4, n_phi=4
            )

    def test_gap_is_relative_to_a_nontrivial_scale(self):
        # the two sides integrate pointwise different products, so the
        # match is meaningful only because both are order-one numbers
        rep = collision_symmetry_gap(
            2.4, n_radial=96, n_angle=48, n_phi=48, tolerance=1e-7
        )
        assert rep.rhs > 0.1
        assert abs(rep.difference) / rep.rhs <= 1e-6


class TestEntropy:
    def test_gaussian_kl_closed_form(self):
        assert gaussian_kl(1.0, 1.0) == 0.0
        assert gaussian_kl(2.0, 1.0) == pytest.approx(
            1.5 * (2.0 - 1.0 - math.log(2.0)), rel=1e-15
        )
        assert gaussian_kl(0.5, 1.0) > 0.0
        with pytest.raises(ValueError, match="positive"):
            gaussian_kl(0.0, 1.0)

    def test_budget_shape_and_validation(self):
        loose = entropy_bias_budget(1000, 0.25)
        tighter = entropy_bias_budget(4000, 0.25)
        assert tighter < loose
        with pytest.raises(ValueError, match="positive bandwidth"):
            entropy_bias_budget(1000, 0.0)
        with pytest.raises(ValueError):
            entropy_bias_budget(1, 0.3)

    def test_self_divergence_within_budget(self):
        rng = np.random.default_rng(8)
        v = rng.normal(0.0, 1.0, size=(1500, 3))
        rep = relative_entropy_kde(v, reference_variance=1.0)
        assert rep.n_samples == 1500
        assert rep.n_excluded == 0
        assert rep.consistent_with_zero, rep.as_dict()

    def test_separated_laws_match_closed_divergence(self):
        rng = np.random.default_rng(9)
        v = rng.normal(0.0, math.sqrt(2.0), size=(1500, 3))
        rep = relative_entropy_kde(v, reference_variance=1.0)
        truth = gaussian_kl(2.0, 1.0)
        assert rep.value > 0.25
        assert abs(rep.value - truth) <= rep.bias_budget + 3.0 * rep.stderr

    def test_explicit_bandwidth_is_respected(self):
        rng = np.random.default_rng(10)
        v = rng.normal(0.0, 1.0, size=(200, 3))
        rep = relative_entropy_kde(v, reference_variance=1.0, bandwidth=0.4)
        assert rep.bandwidth == 0.4

    def test_blocked_planes_match_direct_reference(self, monkeypatch):
        rng = np.random.default_rng(12)
        v = rng.normal(0.0, 1.2, size=(50, 3))
        # twelve rows of 50 per block: the estimate spans five blocks
        monkeypatch.setattr(quadrature, "_PAIR_BUDGET", 600)
        rep = relative_entropy_kde(v, reference_variance=1.0)
        h = rep.bandwidth
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        expo = -0.5 * d2 / (h * h)
        np.fill_diagonal(expo, -np.inf)
        shift = expo.max(axis=1)
        log_kde = np.log(np.exp(expo - shift[:, None]).sum(axis=1)) + shift - (
            math.log(49) + 1.5 * math.log(2.0 * math.pi * h * h)
        )
        log_ref = -0.5 * np.sum(v * v, axis=1) - 1.5 * math.log(2.0 * math.pi)
        terms = log_kde - log_ref
        assert rep.value == float(np.mean(terms))
        assert rep.stderr == float(np.std(terms, ddof=1) / math.sqrt(50))

    def test_matches_scipy_logsumexp(self):
        # scipy's log-sum-exp, an independent route, agrees to rounding
        rng = np.random.default_rng(13)
        v = rng.normal(0.0, 1.2, size=(80, 3))
        rep = relative_entropy_kde(v, reference_variance=1.0)
        h = rep.bandwidth
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        expo = -0.5 * d2 / (h * h)
        np.fill_diagonal(expo, -np.inf)
        log_kde = logsumexp(expo, axis=1) - (
            math.log(79) + 1.5 * math.log(2.0 * math.pi * h * h)
        )
        log_ref = -0.5 * np.sum(v * v, axis=1) - 1.5 * math.log(2.0 * math.pi)
        terms = log_kde - log_ref
        assert_allclose(rep.value, np.mean(terms), rtol=1e-13)
        assert_allclose(
            rep.stderr, np.std(terms, ddof=1) / math.sqrt(80), rtol=1e-12
        )

    def test_input_validation(self):
        v = np.zeros((5, 3))
        with pytest.raises(ValueError, match="at least 10"):
            relative_entropy_kde(v, reference_variance=1.0)
        good = np.random.default_rng(11).normal(size=(20, 3))
        with pytest.raises(ValueError, match="reference variance"):
            relative_entropy_kde(good, reference_variance=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            relative_entropy_kde(good, reference_variance=1.0, bandwidth=-1.0)


NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])


class TestNonFiniteArguments:
    """NaN fails every comparison, so a plain ``x <= 0`` check lets it in."""

    @NON_FINITE
    def test_bump_radius(self, value):
        with pytest.raises(ValueError, match="radius"):
            CompactBump(center=np.zeros(3), radius=value)

    @NON_FINITE
    @pytest.mark.parametrize("which", [0, 1])
    def test_gaussian_kl(self, value, which):
        args = [1.0, 1.0]
        args[which] = value
        with pytest.raises(ValueError, match="finite"):
            gaussian_kl(*args)

    @NON_FINITE
    def test_entropy_bias_budget(self, value):
        with pytest.raises(ValueError, match="bandwidth"):
            entropy_bias_budget(100, value)

    @NON_FINITE
    @pytest.mark.parametrize("name", ["reference_variance", "bandwidth"])
    def test_relative_entropy_kde(self, value, name):
        v = np.random.default_rng(15).normal(size=(20, 3))
        kwargs = {"reference_variance": 1.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            relative_entropy_kde(v, **kwargs)


class TestExitStatistics:
    def test_counts_and_markov_bound(self):
        sups = np.array([1.0, 2.0, 3.0, 4.0])
        rep = exit_statistics(sups, [3.0, 2.0])
        assert_allclose(rep.thresholds, [2.0, 3.0])
        assert_allclose(rep.probabilities, [0.5, 0.25])
        assert_allclose(rep.markov_bounds, [2.5 / 2.0, 2.5 / 3.0])
        assert rep.monotone
        assert rep.bounded
        assert rep.as_dict()["verdict"] == "PASS"

    def test_simulated_suprema_respect_bounds(self, box_ensemble):
        sups = np.array([path.max_speed() for path in box_ensemble])
        rep = exit_statistics(sups, [2.0, 3.0, 4.0, 6.0])
        assert rep.monotone
        assert rep.bounded
        assert rep.n_samples == 600

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            exit_statistics([], [1.0])
        with pytest.raises(ValueError, match="positive"):
            exit_statistics([1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            exit_statistics([1.0], [np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_suprema_must_be_finite(self, bad):
        # one NaN supremum would make every Markov bound NaN
        with pytest.raises(ValueError, match="suprema must be finite"):
            exit_statistics([1.0, bad, 2.0], [1.5])


class TestMomentReport:
    def test_stationary_ensemble_conserves_moments(self, box_ensemble):
        table = moment_report(box_ensemble, [0.0, 0.2, 0.4])
        assert table.n_samples == 600
        assert table.mean_velocity.shape == (3, 3)
        assert table.conserved(band=4.0), table.as_dict()
        # drift against time zero is exactly zero at time zero
        assert_allclose(table.velocity_drift[0], 0.0)
        assert_allclose(table.energy_drift[0], 0.0)

    def test_collisionless_paths_have_zero_drift(self, drift_ensemble):
        _, trajectories = drift_ensemble
        table = moment_report(trajectories, [0.0, 0.15, 0.3])
        assert_allclose(table.velocity_drift, 0.0)
        assert_allclose(table.energy_drift, 0.0)

    def test_energy_level_matches_background(self, box_ensemble):
        table = moment_report(box_ensemble, [0.4])
        expect = 3.0 * BOX.vel_var
        assert abs(table.mean_energy[0] - expect) <= 4.0 * table.se_energy[0]

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            moment_report([], [0.0])


# radial nodes of one speed in a primitive call
RADIAL_NODES = quadrature._HEAD_NODES + quadrature._TAIL_NODES


def _tilted_moment(r, component, p, q):
    """One order of one (possibly tilted) component, one call per order.

    The per-order route of the collision action: the primitive calls and
    the tilt recombination that ``_reduced_action`` makes once per
    component for all orders.
    """
    s = component.variance
    if component.power2m == 0:
        return radial_gaussian_moment(r, s, p, q)
    t0 = radial_gaussian_moment(r, s, p, q)
    t1 = radial_gaussian_moment(r, s, p + 1, q + 1.0)
    t2 = radial_gaussian_moment(r, s, p, q + 2.0)
    return (r * r * t0 + 2.0 * r * t1 + t2) / (3.0 * s)


def reference_collision_action(model, kernel, psi, t, z, level):
    """``collision_action`` assembled from :func:`_tilted_moment`."""
    A, b = psi.quad_matrix, psi.lin_vector
    z_norm = np.linalg.norm(z, axis=1)
    zhat = z / np.where(z_norm > 0.0, z_norm, 1.0)[:, None]
    if level is None:
        y_norm = z_norm
    else:
        y_norm = z_norm / (1.0 + np.maximum(z_norm - level, 0.0))
    beta1 = kernels.angular_weighted_mass(kernel, "sin2_half")
    beta2 = kernels.angular_weighted_mass(kernel, "sin4_half")
    gamma = kernel.gamma
    tr_a = float(np.trace(A))
    zaz = np.einsum("ni,ij,nj->n", zhat, A, zhat)
    bz = np.vecdot(zhat, b)
    total = np.zeros(len(z))
    for comp in model.radial_components(t):
        t1 = _tilted_moment(y_norm, comp, 1, gamma + 1.0)
        linear = beta1 * (2.0 * z_norm * zaz + bz) * t1
        quad = np.zeros_like(linear)
        if np.any(A != 0.0):
            t0 = _tilted_moment(y_norm, comp, 0, gamma + 2.0)
            t2 = _tilted_moment(y_norm, comp, 2, gamma + 2.0)
            w_aw = zaz * t2 + (tr_a - zaz) * 0.5 * (t0 - t2)
            quad = (beta2 - 0.5 * (beta1 - beta2)) * w_aw + 0.5 * (
                beta1 - beta2
            ) * tr_a * t0
        total += comp.weight * (linear + quad)
    return 2.0 * math.pi * kernel.c * total * model.side**-3


class TestBatchedOrders:
    @pytest.mark.parametrize(
        "psi, level",
        [
            (Energy(), None),
            (LinearMomentum([0.3, -1.0, 0.2]), 1.5),
            (Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1]), 1.5),
        ],
        ids=["energy", "momentum-level", "quadratic-level"],
    )
    def test_bkw_action_matches_per_order_route(self, monkeypatch, psi, level):
        bkw = densities.BKWModel(side=2.0, vel_var=0.8, c0=0.4, rate=1.0)
        assert {c.power2m for c in bkw.radial_components(0.3)} == {0, 1}
        z = 1.2 * np.random.default_rng(31).standard_normal((3500, 3))
        # a budget of 3333 speeds' radial nodes: two row blocks of 3333
        # and 167 speeds in every primitive call
        monkeypatch.setattr(quadrature, "_PAIR_BUDGET", 3333 * RADIAL_NODES)
        assert len(list(quadrature.pair_blocks(len(z), RADIAL_NODES))) == 2
        got = collision_action(bkw, GRAZING_KERNEL, psi, 0.3, z, level=level)
        want = reference_collision_action(bkw, GRAZING_KERNEL, psi, 0.3, z, level)
        assert got.tobytes() == want.tobytes()

    def test_each_primitive_is_computed_once(self, monkeypatch):
        # a quadratic on the tilted component expands into nine orders of
        # which two repeat; each call asks for distinct orders only
        calls = []

        def recording(z_norm, s, p, q, **kwargs):
            calls.append((len(z_norm), list(zip(p, q))))
            return radial_gaussian_moment(z_norm, s, p, q, **kwargs)

        monkeypatch.setattr(diagnostics, "radial_gaussian_moment", recording)
        bkw = densities.BKWModel(side=2.0, vel_var=0.8, c0=0.4, rate=1.0)
        z = 1.2 * np.random.default_rng(32).standard_normal((3500, 3))
        psi = Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1])
        got = collision_action(bkw, GRAZING_KERNEL, psi, 0.3, z, level=1.5)
        # one call per component for all of its rows
        assert [(rows, len(orders)) for rows, orders in calls] == [
            (3500, 3), (3500, 7)
        ]
        for _, orders in calls:
            assert len(set(orders)) == len(orders)
        want = reference_collision_action(bkw, GRAZING_KERNEL, psi, 0.3, z, 1.5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "psi", [Energy(), Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1])],
        ids=["energy", "quadratic"],
    )
    @pytest.mark.parametrize("speeds_per_block", [None, 2000],
                             ids=["default", "two-blocks"])
    def test_rows_do_not_depend_on_the_call(self, monkeypatch, psi, speeds_per_block):
        # every speed has its own radial window, so neither the other
        # rows nor the row blocks they fall into move a row's value
        if speeds_per_block:
            monkeypatch.setattr(
                quadrature, "_PAIR_BUDGET", speeds_per_block * RADIAL_NODES
            )
        bkw = densities.BKWModel(side=2.0, vel_var=0.8, c0=0.4, rate=1.0)
        rng = np.random.default_rng(33)
        z = 1.2 * rng.standard_normal((3500, 3))
        z[::7] *= 6.0
        levels = rng.integers(1, 9, size=len(z)).astype(np.float64)
        whole = collision_action(bkw, GRAZING_KERNEL, psi, 0.3, z, level=levels)
        parts = np.concatenate([
            collision_action(
                bkw, GRAZING_KERNEL, psi, 0.3, z[lo:lo + 100],
                level=levels[lo:lo + 100],
            )
            for lo in range(0, len(z), 100)
        ])
        assert whole.tobytes() == parts.tobytes()


BKW = densities.BKWModel(side=2.0, vel_var=0.8, c0=0.4, rate=1.0)
ROW_PSIS = [
    Energy(),
    LinearMomentum([0.3, -1.0, 0.2]),
    Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1]),
]


class TestPerRowLevels:
    @pytest.mark.parametrize("model", [BOX, BKW], ids=["box", "bkw"])
    @pytest.mark.parametrize(
        "kernel", [HS_KERNEL, GRAZING_KERNEL], ids=["hard_sphere", "grazing"]
    )
    @pytest.mark.parametrize("psi", ROW_PSIS, ids=lambda psi: psi.kind)
    def test_matches_per_level_calls(self, model, kernel, psi):
        # every speed has its own radial window, so a row's value is the
        # same whatever level the other rows of its call have
        rng = np.random.default_rng(34)
        z = 1.6 * rng.standard_normal((600, 3))
        levels = rng.integers(1, 9, size=len(z)).astype(np.float64)
        got = collision_action(model, kernel, psi, 0.3, z, level=levels)
        want = np.empty(len(z))
        for lvl in np.unique(levels):
            sel = levels == lvl
            want[sel] = collision_action(model, kernel, psi, 0.3, z[sel], level=lvl)
        assert got.tobytes() == want.tobytes()

    def test_constant_rows_are_the_scalar_level(self):
        z = np.random.default_rng(35).standard_normal((300, 3))
        psi = Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1])
        scalar = collision_action(BKW, GRAZING_KERNEL, psi, 0.3, z, level=1.5)
        rows = collision_action(
            BKW, GRAZING_KERNEL, psi, 0.3, z, level=np.full(len(z), 1.5)
        )
        assert rows.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("model", [BOX, BKW], ids=["box", "bkw"])
    @pytest.mark.parametrize("psi", ROW_PSIS, ids=lambda psi: psi.kind)
    def test_rows_of_one_speed_equal_one_row_calls(self, model, psi):
        # signed permutations of one vector with exact squares have one
        # speed, so every row shares the one-row call's node window and
        # must be its own one-row call bit for bit
        perms = np.array(list(itertools.permutations([0.5, 0.75, 1.0])))
        signs = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
        z = (perms[:, None, :] * signs[None, :, :]).reshape(-1, 3)
        assert len(set(np.linalg.norm(z, axis=1))) == 1
        rows = collision_action(model, GRAZING_KERNEL, psi, 0.3, z, level=1.1)
        for k in range(len(z)):
            one = collision_action(
                model, GRAZING_KERNEL, psi, 0.3, z[k], level=1.1
            )
            assert rows[k] == one[0], k


def reference_weak_residual(
    trajectories, model, kernel, psi, horizon=None, collisions=True
):
    """``weak_residual`` path by path: clip each path's segments, then pool.

    Returns ``(lhs, rhs, stderr)``.  Rows reach ``collision_action`` in
    one call and in the same order as in the one-table route, so the two
    agree bit for bit.
    """
    horizon = trajectories[0].horizon if horizon is None else float(horizon)
    needs_action = collisions and psi.collision_active
    n = len(trajectories)
    delta = np.empty(n)
    transport = np.zeros(n)
    seg_z, seg_len, seg_lvl, seg_path = [], [], [], []
    for i, path in enumerate(trajectories):
        x_end = path.position(horizon)
        z_end = path.velocity(horizon)
        delta[i] = float(
            psi.value(x_end[None], z_end[None])[0]
            - psi.value(path.positions[:1], path.velocities[:1])[0]
        )
        if psi.quad_matrix is None:
            transport[i] = delta[i]
        if needs_action:
            keep = path.times < horizon
            times = path.times[keep]
            ends = np.append(times[1:], horizon)
            seg_len.append(np.minimum(ends, horizon) - times)
            seg_z.append(path.velocities[keep])
            seg_lvl.append(path.levels[keep])
            seg_path.append(np.full(len(times), i))
    collision = np.zeros(n)
    if needs_action:
        action = collision_action(
            model, kernel, psi, 0.0, np.concatenate(seg_z),
            level=np.concatenate(seg_lvl),
        )
        collision = np.bincount(
            np.concatenate(seg_path),
            weights=np.concatenate(seg_len) * action,
            minlength=n,
        )
    residuals = delta - transport - collision
    stderr = float(np.std(residuals, ddof=1) / math.sqrt(n))
    return float(np.mean(delta)), float(np.mean(transport + collision)), stderr


@pytest.fixture(scope="module")
def mixed_ensemble():
    """Escalating grazing paths on several levels, with jumpless paths."""
    escalating = engine.SimConfig(horizon=0.5, level=1.0, level_step=0.5)
    busy, _ = engine.simulate_ensemble(
        BOX, GRAZING_KERNEL, escalating, seed=41, n_paths=120
    )
    faint = kernels.KernelSpec(gamma=0.0, c=0.01, angular=kernels.HARD_SPHERE)
    quiet, _ = engine.simulate_ensemble(
        BOX, faint, engine.SimConfig(horizon=0.5), seed=42, n_paths=12
    )
    ensemble = busy[:50] + quiet[:6] + busy[50:] + quiet[6:]
    levels = np.unique(np.concatenate([path.levels for path in ensemble]))
    assert len(levels) >= 3
    assert sum(path.n_jumps == 0 for path in ensemble) >= 6
    assert ensemble[-1].n_jumps == 0
    return ensemble


class TestSegmentTable:
    PSIS = [
        Constant(2.0),
        LinearMomentum([1.0, -0.5, 0.0]),
        Energy(),
        Quadratic(MIXED_A, vector=[0.0, 0.2, -0.1]),
        CompactBump(center=[0.2, 0.3, -0.1], radius=1.5),
    ]

    @pytest.mark.parametrize("collisions", [True, False], ids=["on", "off"])
    def test_matches_per_path_route(self, mixed_ensemble, collisions):
        on_jump = float(mixed_ensemble[0].times[2])
        for horizon in (None, 0.0, 0.17, on_jump, 0.5):
            for psi in self.PSIS:
                rep = weak_residual(
                    mixed_ensemble, BOX, GRAZING_KERNEL, psi, horizon=horizon,
                    collisions=collisions,
                )
                want = reference_weak_residual(
                    mixed_ensemble, BOX, GRAZING_KERNEL, psi, horizon=horizon,
                    collisions=collisions,
                )
                assert (rep.lhs, rep.rhs, rep.stderr) == want, (horizon, psi.kind)

    @pytest.mark.parametrize("collisions", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("horizon", [0.5 + 1e-12, -0.1])
    def test_window_outside_any_path_rejected(
        self, mixed_ensemble, collisions, horizon
    ):
        with pytest.raises(ValueError, match="not within the simulated horizon"):
            weak_residual(
                mixed_ensemble, BOX, GRAZING_KERNEL, Energy(), horizon=horizon,
                collisions=collisions,
            )


class TestOnePath:
    def test_moment_report_needs_two_paths(self, box_ensemble):
        with pytest.raises(ValueError, match="at least two paths, got 1"):
            moment_report(box_ensemble[:1], [0.0, 0.2])
