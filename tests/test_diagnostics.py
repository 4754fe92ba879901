"""Tests for weak-form residuals, entropy and exit diagnostics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from boltzgas import densities, diagnostics, engine, kernels, particles
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
from boltzgas.quadrature import gauss_hermite_3d, gauss_legendre
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
        assert_allclose(psi.grad_z(None, z), [[0.0, 2.0, -1.0]])
        assert_allclose(psi.grad_x(np.zeros((1, 3)), z), 0.0)
        assert psi.collision_active

    def test_energy_matches_identity_quadratic(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 3))
        ener = Energy()
        quad = Quadratic(np.eye(3))
        assert_allclose(ener.value(None, z), quad.value(None, z), rtol=1e-15)
        assert_allclose(ener.grad_z(None, z), quad.grad_z(None, z), rtol=1e-15)

    def test_quadratic_symmetrises_matrix(self):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        psi = Quadratic(a)
        assert_allclose(psi.quad_matrix, 0.5 * (a + a.T))
        z = np.array([[1.0, 2.0, 0.0]])
        assert_allclose(psi.value(None, z), [2.0])

    def test_bump_gradient_matches_finite_differences(self):
        psi = CompactBump(center=[0.5, -0.2, 0.1], radius=1.3)
        rng = np.random.default_rng(3)
        x = psi.center + 0.7 * rng.normal(size=(5, 3))
        grad = psi.grad_x(x, None)
        eps = 1e-6
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = eps
            num = (
                psi.value(x + shift, None) - psi.value(x - shift, None)
            ) / (2.0 * eps)
            assert_allclose(grad[:, axis], num, rtol=1e-6, atol=1e-8)

    def test_bump_outside_support_is_flat_zero(self):
        psi = CompactBump(center=np.zeros(3), radius=0.5)
        far = np.array([[2.0, 0.0, 0.0]])
        assert psi.value(far, None)[0] == 0.0
        assert_allclose(psi.grad_x(far, None), 0.0)
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
        rep = weak_residual(box_ensemble, BOX, HS_KERNEL, psi, n_nodes=200)
        assert rep.n_samples == 600
        assert rep.verdict, rep.as_dict()

    def test_sub_horizon_window(self, box_ensemble):
        rep = weak_residual(
            box_ensemble, BOX, HS_KERNEL, Energy(), horizon=0.2, n_nodes=200
        )
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
        monkeypatch.setattr(densities, "_PAIR_BUDGET", 600)
        rep = relative_entropy_kde(v, reference_variance=1.0)
        h = rep.bandwidth
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        expo = -0.5 * d2 / (h * h)
        np.fill_diagonal(expo, -np.inf)
        log_kde = logsumexp(expo, axis=1) - (
            math.log(49) + 1.5 * math.log(2.0 * math.pi * h * h)
        )
        log_ref = -0.5 * np.sum(v * v, axis=1) - 1.5 * math.log(2.0 * math.pi)
        terms = log_kde - log_ref
        assert rep.value == float(np.mean(terms))
        assert rep.stderr == float(np.std(terms, ddof=1) / math.sqrt(50))

    def test_input_validation(self):
        v = np.zeros((5, 3))
        with pytest.raises(ValueError, match="at least 10"):
            relative_entropy_kde(v, reference_variance=1.0)
        good = np.random.default_rng(11).normal(size=(20, 3))
        with pytest.raises(ValueError, match="reference variance"):
            relative_entropy_kde(good, reference_variance=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            relative_entropy_kde(good, reference_variance=1.0, bandwidth=-1.0)


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
