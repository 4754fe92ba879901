"""Density models: closed moments, samplers, certified bounds, oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from boltzgas.densities import (
    BKWModel,
    BoxMaxwellianModel,
    GaussianProductModel,
    MollifiedEmpiricalModel,
    RadialBoxModel,
    RadialComponent,
    bkw_fourth_moment,
    bkw_relaxation_rate,
    certify_hypotheses,
    maxwell_abs_moment,
)
from boltzgas.kernels import HARD_SPHERE, POWER_LAW, KernelSpec
from boltzgas.quadrature import gauss_hermite_3d
from boltzgas.rng import stream


def maxwell_kernel(c=1.0):
    return KernelSpec(gamma=0.0, c=c, angular=HARD_SPHERE)


class TestMaxwellMoments:
    def test_table(self):
        s = 1.7
        assert_allclose(maxwell_abs_moment(s, 1), math.sqrt(8 * s / math.pi))
        assert_allclose(maxwell_abs_moment(s, 2), 3 * s)
        assert_allclose(maxwell_abs_moment(s, 3), 8 * math.sqrt(2 / math.pi) * s**1.5)
        assert_allclose(maxwell_abs_moment(s, 4), 15 * s**2)
        assert_allclose(maxwell_abs_moment(s, 6), 105 * s**3)

    def test_fractional_order_against_quadrature(self):
        s = 0.8
        p = 1.37
        norm = (2 * math.pi * s) ** -1.5
        val, _ = quad(
            lambda r: 4 * math.pi * norm * r ** (2 + p) * math.exp(-r * r / (2 * s)),
            0.0,
            40.0,
            epsrel=1e-12,
        )
        assert_allclose(maxwell_abs_moment(s, p), val, rtol=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            maxwell_abs_moment(1.0, -3.0)


class TestGaussianProductModel:
    def test_marginal_and_conditional_factorise(self):
        model = GaussianProductModel(vel_var=1.3, pos_var=0.5, drift="static")
        rng = stream(1, 0)
        x = rng.standard_normal((50, 3))
        v = rng.standard_normal((50, 3))
        joint = model.evaluate(0.0, x, v)
        split = model.velocity_marginal(0.0, v) * model.conditional(0.0, x, v)
        assert_allclose(joint, split, rtol=1e-12)

    def test_free_transport_carries_the_bump(self):
        model = GaussianProductModel(vel_var=1.0, pos_var=0.4, drift="free_transport")
        v = np.array([[1.0, -0.5, 2.0]])
        t = 0.8
        # density along the characteristic is constant in time
        assert_allclose(
            model.evaluate(t, t * v, v), model.evaluate(0.0, 0.0 * v, v), rtol=1e-13
        )

    def test_sampler_moments(self):
        model = GaussianProductModel(vel_var=1.7, pos_var=1.0)
        rng = stream(2, 0)
        v = model.sample_velocity(0.0, rng, 200000)
        speeds = np.linalg.norm(v, axis=1)
        se = speeds.std() / math.sqrt(len(speeds))
        assert abs(speeds.mean() - model.mean_speed(0.0)) < 4 * se

    def test_speed_tilted_sampler(self):
        model = GaussianProductModel(vel_var=0.9, pos_var=1.0)
        rng = stream(3, 0)
        v = model.sample_speed_tilted(0.0, rng, 200000)
        speeds = np.linalg.norm(v, axis=1)
        # tilted law has E|v| = E|v|^2 / E|v|
        expected = model.speed_moment(0.0, 2) / model.mean_speed(0.0)
        se = speeds.std() / math.sqrt(len(speeds))
        assert abs(speeds.mean() - expected) < 4 * se

    def test_state_sampler_matches_conditional(self):
        model = GaussianProductModel(vel_var=1.0, pos_var=0.3, drift="free_transport")
        rng = stream(4, 0)
        t = 0.6
        x, v = model.sample_state(t, rng, 100000)
        resid = x - t * v
        assert abs(resid.mean()) < 0.01
        assert_allclose(resid.var(axis=0), 0.3, rtol=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianProductModel(vel_var=0.0)
        with pytest.raises(ValueError):
            GaussianProductModel(drift="ballistic")


class TestBoxMaxwellianModel:
    def test_uniform_in_space(self):
        model = BoxMaxwellianModel(side=2.0, vel_var=1.0)
        v = np.array([[0.3, 0.1, -0.2]])
        a = model.evaluate(0.0, np.array([[0.1, 0.1, 0.1]]), v)
        b = model.evaluate(0.0, np.array([[1.9, 0.5, 1.0]]), v)
        assert_allclose(a, b, rtol=0.0)
        assert_allclose(model.conditional(0.0, np.zeros((1, 3)), v), 2.0**-3)

    def test_conditional_sup(self):
        model = BoxMaxwellianModel(side=1.5, vel_var=1.0)
        assert_allclose(model.conditional_sup(10.0), 1.5**-3)

    def test_sample_state_in_box(self):
        model = BoxMaxwellianModel(side=2.5, vel_var=1.0)
        x, v = model.sample_state(0.0, stream(5, 0), 10000)
        assert np.all((x >= 0.0) & (x < 2.5))


class TestBKWModel:
    def setup_method(self):
        self.kern = maxwell_kernel(c=0.8)
        self.rate = bkw_relaxation_rate(self.kern)
        self.model = BKWModel(side=2.0, vel_var=1.7, c0=0.35, rate=self.rate)

    def test_relaxation_rate_closed_form(self):
        # hard-sphere angular measure without cutoff: rate = pi c / 3
        assert_allclose(self.rate, math.pi * 0.8 / 3.0, rtol=1e-14)

    def test_marginal_normalised(self):
        for t in (0.0, 0.5, 3.0):
            val, _ = quad(
                lambda r: 4
                * math.pi
                * r
                * r
                * self.model.velocity_marginal(t, np.array([[r, 0, 0]]))[0],
                0.0,
                60.0,
                epsrel=1e-11,
            )
            assert_allclose(val, 1.0, rtol=1e-9)

    def test_energy_conserved_fourth_moment_relaxes(self):
        s = self.model.vel_var
        for t in (0.0, 0.7, 2.0):
            m2, _ = quad(
                lambda r: 4
                * math.pi
                * r**4
                * self.model.velocity_marginal(t, np.array([[r, 0, 0]]))[0],
                0.0,
                60.0,
                epsrel=1e-11,
            )
            m4, _ = quad(
                lambda r: 4
                * math.pi
                * r**6
                * self.model.velocity_marginal(t, np.array([[r, 0, 0]]))[0],
                0.0,
                60.0,
                epsrel=1e-11,
            )
            assert_allclose(m2, 3 * s, rtol=1e-9)
            assert_allclose(m4, self.model.fourth_moment(t), rtol=1e-9)

    def test_fourth_moment_monotone_to_equilibrium(self):
        ts = np.linspace(0.0, 10.0, 50)
        m4 = np.array([self.model.fourth_moment(t) for t in ts])
        assert np.all(np.diff(m4) > 0.0)
        assert_allclose(m4[-1], 15 * self.model.vel_var**2, rtol=1e-3)

    def test_samplers(self):
        rng = stream(6, 0)
        t = 0.4
        v = self.model.sample_velocity(t, rng, 300000)
        speeds2 = np.sum(v * v, axis=1)
        se2 = speeds2.std() / math.sqrt(len(speeds2))
        assert abs(speeds2.mean() - 3 * self.model.vel_var) < 4 * se2
        m4 = speeds2**2
        se4 = m4.std() / math.sqrt(len(m4))
        assert abs(m4.mean() - self.model.fourth_moment(t)) < 4 * se4
        vt = self.model.sample_speed_tilted(t, rng, 200000)
        speeds = np.linalg.norm(vt, axis=1)
        expected = self.model.speed_moment(t, 2) / self.model.mean_speed(t)
        se = speeds.std() / math.sqrt(len(speeds))
        assert abs(speeds.mean() - expected) < 4 * se

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            BKWModel(c0=0.41, rate=1.0)
        with pytest.raises(ValueError):
            BKWModel(c0=0.0, rate=1.0)
        with pytest.raises(ValueError):
            BKWModel(c0=0.2, rate=0.0)


class TwoVarianceBox(RadialBoxModel):
    """Plain Gaussian plus a |v|^2-tilted Gaussian of another variance."""

    def __init__(self):
        super().__init__(side=1.5, vel_var=0.6)

    def radial_components(self, t):
        return [RadialComponent(0.3, 0.6, 0), RadialComponent(0.7, 1.8, 1)]


class TestRadialMixture:
    def setup_method(self):
        self.model = TwoVarianceBox()

    def test_marginal_integrates_to_one(self):
        nodes, weights = gauss_hermite_3d(40, 1.8)
        gauss = (2 * math.pi * 1.8) ** -1.5 * np.exp(
            -0.5 * np.sum(nodes * nodes, axis=1) / 1.8
        )
        mass = np.sum(weights * self.model.velocity_marginal(0.0, nodes) / gauss)
        assert_allclose(mass, 1.0, rtol=1e-10)

    def test_marginal_is_weighted_component_sum(self):
        v = stream(12, 0).standard_normal((200, 3)) * 1.5
        r2 = np.sum(v * v, axis=1)
        plain = (2 * math.pi * 0.6) ** -1.5 * np.exp(-0.5 * r2 / 0.6)
        tilted = (
            r2 / (3 * 1.8) * (2 * math.pi * 1.8) ** -1.5 * np.exp(-0.5 * r2 / 1.8)
        )
        expected = 0.3 * plain + 0.7 * tilted
        assert_allclose(self.model.velocity_marginal(0.0, v), expected, rtol=1e-13)
        joint = self.model.evaluate(0.0, np.zeros((200, 3)), v)
        assert_allclose(joint, expected / 1.5**3, rtol=1e-13)

    def test_samplers_match_moments(self):
        rng = stream(13, 0)
        v = self.model.sample_velocity(0.0, rng, 200000)
        speeds2 = np.sum(v * v, axis=1)
        se = speeds2.std() / math.sqrt(len(speeds2))
        # E|V|^2 is 3 s for the plain part and 5 s for the |v|^2 tilt
        assert_allclose(self.model.speed_moment(0.0, 2), 0.3 * 1.8 + 0.7 * 9.0)
        assert abs(speeds2.mean() - self.model.speed_moment(0.0, 2)) < 4 * se
        vt = self.model.sample_speed_tilted(0.0, rng, 200000)
        inv = 1.0 / np.linalg.norm(vt, axis=1)
        se = inv.std() / math.sqrt(len(inv))
        assert abs(inv.mean() - 1.0 / self.model.mean_speed(0.0)) < 4 * se


class CountingBKW(BKWModel):
    """BKW family that counts its velocity-marginal evaluations."""

    calls = 0

    def velocity_marginal(self, t, v):
        self.calls += 1
        return super().velocity_marginal(t, v)


class TestBoxConditional:
    def test_one_marginal_per_call(self):
        model = CountingBKW(side=1.5, c0=0.3)
        v = stream(14, 0).standard_normal((5, 3))
        for k in range(4):
            model.conditional(0.1 * k, np.zeros((1, 3)), v)
        assert model.calls == 4

    def test_side_cubed_where_marginal_positive(self):
        model = BKWModel(side=1.5, c0=0.3)
        v = stream(15, 0).standard_normal((50, 3))
        cond = model.conditional(0.2, np.zeros((1, 3)), v)
        assert np.all(cond == 1.5**-3)

    def test_zero_where_marginal_vanishes(self):
        # at t = 0 with c0 = 2/5 the BKW marginal is |v|^2 times a
        # Gaussian, so it vanishes at v = 0
        model = BKWModel(c0=0.4)
        v = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert model.velocity_marginal(0.0, v)[0] == 0.0
        cond = model.conditional(0.0, np.zeros((2, 3)), v)
        assert cond[0] == 0.0
        assert cond[1] == 1.0


class CountingGaussian(GaussianProductModel):
    """Gaussian product that counts its velocity-marginal evaluations."""

    calls = 0

    def velocity_marginal(self, t, v):
        self.calls += 1
        return super().velocity_marginal(t, v)


class TestGaussianConditional:
    @pytest.mark.parametrize("drift", ["static", "free_transport"])
    def test_one_marginal_per_call(self, drift):
        model = CountingGaussian(vel_var=1.3, pos_var=0.7, drift=drift)
        rng = stream(16, 0)
        for k in range(4):
            model.conditional(0.1 * k, rng.standard_normal((5, 3)),
                              rng.standard_normal((5, 3)))
        assert model.calls == 4

    @pytest.mark.parametrize("drift", ["static", "free_transport"])
    def test_joint_over_marginal(self, drift):
        model = GaussianProductModel(vel_var=1.3, pos_var=0.7, drift=drift)
        rng = stream(17, 0)
        x = rng.standard_normal((200, 3))
        v = 2.0 * rng.standard_normal((200, 3))
        for t in (0.0, 0.3, 1.7):
            expected = model.evaluate(t, x, v) / model.velocity_marginal(t, v)
            assert_allclose(model.conditional(t, x, v), expected, rtol=1e-15)
        # a single position row broadcasts against the velocity rows
        one = model.conditional(0.3, x[:1], v)
        assert one.shape == (200,)
        assert_allclose(one, model.evaluate(0.3, x[:1], v)
                        / model.velocity_marginal(0.3, v), rtol=1e-15)


class CountingMoments:
    """Mix-in counting ``speed_moment`` evaluations."""

    moment_calls = 0

    def speed_moment(self, t, p):
        self.moment_calls += 1
        return super().speed_moment(t, p)


class CountingBoxMoments(CountingMoments, BoxMaxwellianModel):
    pass


class CountingGaussianMoments(CountingMoments, GaussianProductModel):
    pass


class CountingBKWMoments(CountingMoments, BKWModel):
    pass


def scanned_sup(model, p, horizon, n_grid):
    grid = np.linspace(0.0, horizon, n_grid)
    return float(np.array([model.speed_moment(t, p) for t in grid]).max())


class TestStationaryMoments:
    @pytest.mark.parametrize("make", [
        lambda: CountingBoxMoments(side=1.5, vel_var=0.8),
        lambda: CountingGaussianMoments(vel_var=0.8, drift="free_transport"),
    ], ids=["box", "gaussian"])
    def test_speed_sq_bound_reads_one_moment(self, make):
        model = make()
        bound = model.speed_sq_bound(3.0)
        assert model.moment_calls == 1
        assert bound == scanned_sup(model, 2, 3.0, 257) * (1.0 + 1e-9)

    def test_box_moment_bound_reads_one_moment(self):
        model = CountingBoxMoments(side=1.5, vel_var=0.8)
        for p in (2, 3, 4.5):
            model.moment_calls = 0
            bound = model.moment_bound(p, 2.0)
            assert model.moment_calls == 1
            scan = scanned_sup(model, p, 2.0, 2049)
            assert bound == 1.5**-3 * scan * (1.0 + 1e-9)

    def test_bkw_keeps_its_scan(self):
        # BKW's E|V|^2 is conserved but computed with t-dependent roundoff
        model = CountingBKWMoments(side=1.0, vel_var=1.0, c0=0.3)
        model.speed_sq_bound(1.0)
        assert model.moment_calls == 257


class TestMomentOracle:
    def test_matches_closed_family_when_started_in_it(self):
        # a tagged particle initialised in the relaxing bath law must
        # track the bath's own fourth moment exactly
        kern = maxwell_kernel(c=0.8)
        model = BKWModel(side=1.0, vel_var=1.7, c0=0.35,
                         rate=bkw_relaxation_rate(kern))
        ts = np.linspace(0.0, 2.5, 7)
        m2, m4 = bkw_fourth_moment(ts, kern, vel_var=1.7, c0=0.35)
        closed = np.array([model.fourth_moment(t) for t in ts])
        assert_allclose(m2, 3 * 1.7, rtol=1e-10)
        assert_allclose(m4, closed, rtol=1e-9)

    def test_equilibrium_fixed_point(self):
        kern = maxwell_kernel(c=1.2)
        s = 0.9
        ts = np.linspace(0.0, 4.0, 5)
        # nearly-equilibrated bath: tagged moments must stay put
        m2, m4 = bkw_fourth_moment(ts, kern, vel_var=s, c0=1e-9)
        assert_allclose(m2, 3 * s, rtol=1e-9)
        assert_allclose(m4, 15 * s * s, rtol=1e-7)

    def test_cold_start_relaxes_monotonically(self):
        kern = maxwell_kernel(c=1.0)
        ts = np.linspace(0.0, 6.0, 40)
        m2, m4 = bkw_fourth_moment(ts, kern, vel_var=1.0, c0=0.3,
                                   m2_init=0.0, m4_init=0.0)
        assert np.all(np.diff(m2) > 0.0)
        assert m2[-1] > 2.9
        assert np.all(m4 >= 0.0)

    def test_requires_constant_rate(self):
        kern = KernelSpec(gamma=1.0, c=1.0, angular=HARD_SPHERE)
        with pytest.raises(ValueError, match="gamma"):
            bkw_fourth_moment([0.1], kern)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            bkw_fourth_moment([-0.1], maxwell_kernel())


class TestMollifiedEmpiricalModel:
    def make_model(self, n=300, side=2.0, h_x=0.2, h_v=0.5, seed=3):
        rng = stream(seed, 0)
        box = BoxMaxwellianModel(side=side, vel_var=1.0)
        xs, vs = box.sample_state(0.0, rng, n)
        return MollifiedEmpiricalModel(xs, vs, h_x=h_x, h_v=h_v, side=side)

    def test_marginal_is_mixture(self):
        model = self.make_model(n=20)
        v = np.array([[0.2, -0.1, 0.4]])
        dv = v - model.velocities
        norm = (2 * math.pi * model.h_v**2) ** -1.5
        expected = np.mean(
            norm * np.exp(-0.5 * np.sum(dv * dv, axis=1) / model.h_v**2)
        )
        assert_allclose(model.velocity_marginal(0.0, v)[0], expected, rtol=1e-12)

    def test_mean_speed_against_monte_carlo(self):
        model = self.make_model()
        v = model.sample_velocity(0.0, stream(8, 0), 200000)
        speeds = np.linalg.norm(v, axis=1)
        se = speeds.std() / math.sqrt(len(speeds))
        assert abs(speeds.mean() - model.mean_speed(0.0)) < 4 * se

    def test_speed_tilted_sampler(self):
        model = self.make_model(n=80)
        v = model.sample_speed_tilted(0.0, stream(9, 0), 100000)
        speeds = np.linalg.norm(v, axis=1)
        expected = model.speed_moment(0.0, 2) / model.mean_speed(0.0)
        se = speeds.std() / math.sqrt(len(speeds))
        assert abs(speeds.mean() - expected) < 4 * se

    def test_speed_sq_bound_evaluates_once(self):
        model = self.make_model(n=40)
        calls = []

        class Counting(MollifiedEmpiricalModel):
            def speed_moment(self, t, p):
                calls.append((t, p))
                return super().speed_moment(t, p)

        counting = Counting(
            model.positions, model.velocities, model.h_x, model.h_v, side=2.0
        )
        bound = counting.speed_sq_bound(5.0)
        assert calls == [(0.0, 2)]
        assert bound == model.speed_moment(0.0, 2) * (1.0 + 1e-9)

    def test_conditional_sup_is_a_bound(self):
        model = self.make_model(n=50)
        rng = stream(10, 0)
        x = 2.0 * rng.random((2000, 3))
        v = model.sample_velocity(0.0, rng, 2000)
        cond = model.conditional(0.0, x, v)
        assert np.all(cond <= model.conditional_sup(1.0) * (1 + 1e-12))

    def test_periodic_wraparound(self):
        xs = np.array([[0.05, 1.0, 1.0]])
        vs = np.zeros((1, 3))
        model = MollifiedEmpiricalModel(xs, vs, h_x=0.1, h_v=0.3, side=2.0)
        near = model.evaluate(0.0, np.array([[1.95, 1.0, 1.0]]), np.zeros((1, 3)))
        far = model.evaluate(0.0, np.array([[1.0, 1.0, 1.0]]), np.zeros((1, 3)))
        assert near[0] > far[0]

    def test_csv_round_trip(self, tmp_path):
        model = self.make_model(n=40)
        path = tmp_path / "snapshot.csv"
        header = "x1,x2,x3,v1,v2,v3"
        np.savetxt(
            path,
            np.hstack([model.positions, model.velocities]),
            delimiter=",",
            header=header,
            comments="",
        )
        loaded = MollifiedEmpiricalModel.from_csv(path, h_x=0.2, h_v=0.5, side=2.0)
        assert_allclose(loaded.positions, model.positions, rtol=1e-15)
        assert_allclose(loaded.velocities, model.velocities, rtol=1e-15)

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,x3\n0,0,0\n")
        with pytest.raises(ValueError, match="v1"):
            MollifiedEmpiricalModel.from_csv(path, h_x=0.1, h_v=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MollifiedEmpiricalModel(np.zeros((5, 2)), np.zeros((5, 2)), 0.1, 0.1)
        with pytest.raises(ValueError):
            MollifiedEmpiricalModel(np.zeros((5, 3)), np.zeros((5, 3)), 0.0, 0.1)
        with pytest.raises(ValueError):
            # spatial width too coarse for the box
            MollifiedEmpiricalModel(
                np.zeros((5, 3)), np.zeros((5, 3)), 0.5, 0.1, side=1.0
            )


class TestCertification:
    def test_deterministic_models_pass(self):
        kern1 = KernelSpec(gamma=1.0, c=0.5, angular=HARD_SPHERE)
        kern0 = maxwell_kernel(c=0.5)
        cases = [
            (GaussianProductModel(1.0, 0.8, "static"), kern1),
            (GaussianProductModel(1.3, 0.8, "free_transport"), kern1),
            (BoxMaxwellianModel(2.0, 1.0), kern0),
            (BKWModel(2.0, 1.0, 0.4, bkw_relaxation_rate(kern0)), kern0),
        ]
        for model, kern in cases:
            report = certify_hypotheses(model, kern, horizon=0.5)
            failed = [c.name for c in report.checks if not c.passed]
            assert report.passed, f"{report.model}: failed {failed}"
            assert len(report.checks) == 5

    def test_empirical_model_passes_when_resolvable(self):
        rng = stream(11, 0)
        box = BoxMaxwellianModel(side=2.0, vel_var=1.0)
        xs, vs = box.sample_state(0.0, rng, 60)
        model = MollifiedEmpiricalModel(xs, vs, h_x=0.25, h_v=0.8, side=2.0)
        kern = maxwell_kernel()
        report = certify_hypotheses(
            model, kern, horizon=0.2, n_time=2, n_side=3, n_nodes=16
        )
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failed {failed}"

    def test_measured_never_exceeds_declared(self):
        kern = maxwell_kernel()
        model = BoxMaxwellianModel(1.0, 1.0)
        report = certify_hypotheses(model, kern, horizon=1.0)
        for check in report.checks:
            assert check.measured <= check.declared_bound * 1.005 + 1e-12

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            certify_hypotheses(BoxMaxwellianModel(), maxwell_kernel(), horizon=0.0)
