"""Collision kernels: validation, masses, sampling, angular moments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from boltzgas.kernels import (
    HARD_SPHERE,
    POWER_LAW,
    KernelSpec,
    angular_mass,
    angular_weighted_mass,
    sample_theta,
    sigma,
    sigma_weight,
    theta_first_moment,
)


def hard_sphere(gamma=1.0, c=1.0, epsilon=None):
    if epsilon is None:
        return KernelSpec(gamma=gamma, c=c, angular=HARD_SPHERE)
    return KernelSpec(gamma=gamma, c=c, angular=HARD_SPHERE, epsilon=epsilon)


def power_law(nu=0.5, epsilon=0.01, gamma=0.0, c=1.0):
    return KernelSpec(gamma=gamma, c=c, angular=POWER_LAW, nu=nu, epsilon=epsilon)


class TestKernelSpecValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=-1.0, c=1.0, angular=HARD_SPHERE)
        with pytest.raises(ValueError):
            KernelSpec(gamma=1.5, c=1.0, angular=HARD_SPHERE)
        KernelSpec(gamma=1.0, c=1.0, angular=HARD_SPHERE)

    def test_positive_prefactor(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=0.0, angular=HARD_SPHERE)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=1.0, angular="inverse_power")

    def test_power_law_needs_nu(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=1.0, angular=POWER_LAW)
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=1.0, angular=POWER_LAW, nu=1.0)

    def test_nu_rejected_for_hard_sphere(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=1.0, angular=HARD_SPHERE, nu=0.5)

    def test_power_law_needs_cutoff(self):
        with pytest.raises(ValueError):
            KernelSpec(gamma=0.0, c=1.0, angular=POWER_LAW, nu=0.5, epsilon=0.0)

    def test_default_cutoffs(self):
        assert hard_sphere().epsilon == 0.0
        spec = KernelSpec(gamma=0.0, c=1.0, angular=POWER_LAW, nu=0.5)
        assert spec.epsilon == 1e-3


class TestCrossSection:
    def test_power_scaling(self):
        spec = hard_sphere(gamma=0.7, c=2.5)
        r = np.array([0.1, 1.0, 4.0])
        assert_allclose(sigma(spec, r), 2.5 * r**0.7, rtol=1e-15)

    def test_constant_for_gamma_zero(self):
        spec = hard_sphere(gamma=0.0, c=3.0)
        assert sigma(spec, 0.0) == 3.0
        assert_allclose(sigma(spec, np.array([0.0, 5.0])), 3.0)

    def test_singular_limit_flagged(self):
        spec = hard_sphere(gamma=-0.5, c=1.0)
        assert sigma(spec, 0.0) == np.inf

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            sigma(hard_sphere(), -1.0)


class TestSigmaWeight:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_bounds_the_cross_section_below_the_speed(self, gamma):
        spec = hard_sphere(gamma=gamma, c=2.5)
        for speed in (0.0, 0.3, 1.0, 7.0):
            r = np.linspace(0.0, speed, 101)
            assert np.all(sigma(spec, r) <= spec.c * sigma_weight(spec, speed))

    def test_soft_potential_has_no_weight(self):
        with pytest.raises(ValueError, match="soft"):
            sigma_weight(hard_sphere(gamma=-0.5), 1.0)


class TestAngularMass:
    def test_hard_sphere_full_mass(self):
        assert angular_mass(hard_sphere()) == 1.0

    def test_hard_sphere_cutoff_closed_form(self):
        spec = hard_sphere()
        for eps in (0.1, 0.7, 2.0):
            expected = 0.5 * (1.0 + np.cos(eps))
            assert_allclose(angular_mass(spec, eps), expected, rtol=1e-15)

    def test_power_law_frozen_value(self):
        # (0.01^-0.5 - pi^-0.5) / 0.5 evaluated independently
        assert_allclose(
            angular_mass(power_law(nu=0.5, epsilon=0.01)),
            18.871620832904487,
            rtol=1e-15,
        )

    def test_against_quadrature(self):
        spec_hs = hard_sphere()
        val, _ = quad(lambda t: np.sin(t / 2) * np.cos(t / 2), 0.3, np.pi)
        assert_allclose(angular_mass(spec_hs, 0.3), val, rtol=1e-10)
        spec_pl = power_law(nu=0.7, epsilon=0.05)
        val, _ = quad(lambda t: t ** (-1.7), 0.05, np.pi)
        assert_allclose(angular_mass(spec_pl), val, rtol=1e-10)

    def test_mass_diverges_without_cutoff(self):
        with pytest.raises(ValueError):
            angular_mass(power_law(), epsilon=0.0)


class TestSampling:
    def test_hard_sphere_median(self):
        assert_allclose(sample_theta(hard_sphere(), 0.5), np.pi / 2, rtol=1e-15)

    def test_inverse_cdf_consistency(self):
        # Mapping u through the sampler and back through the CDF of the
        # cutoff measure must reproduce u.
        u = np.linspace(0.0, 0.999, 200)
        for spec in (hard_sphere(epsilon=0.2), power_law(nu=0.3, epsilon=0.05)):
            theta = sample_theta(spec, u)
            assert np.all(theta >= spec.epsilon - 1e-15)
            assert np.all(theta <= np.pi + 1e-15)
            total = angular_mass(spec)
            cdf = np.array(
                [
                    angular_mass(spec) - angular_mass(spec, epsilon=t)
                    for t in theta
                ]
            ) / total
            assert_allclose(cdf, u, atol=1e-12)

    def test_sampled_moments_match(self):
        rng = np.random.default_rng(5)
        u = rng.random(200000)
        spec = hard_sphere()
        theta = sample_theta(spec, u)
        x = np.sin(theta / 2.0) ** 2
        # sin^2(theta/2) is uniform on [0, 1] under the full measure
        assert abs(x.mean() - 0.5) < 4.0 * x.std() / np.sqrt(len(x))
        assert abs(np.mean(x**2) - 1.0 / 3.0) < 0.002

    def test_u_domain(self):
        with pytest.raises(ValueError):
            sample_theta(hard_sphere(), 1.0)
        with pytest.raises(ValueError):
            sample_theta(hard_sphere(), -0.1)


class TestAngularMoments:
    def test_hard_sphere_theta_moment_full(self):
        assert_allclose(theta_first_moment(hard_sphere()), np.pi / 2, rtol=1e-15)

    def test_power_law_theta_moment_closed_form(self):
        # nu = 1/2 with vanishing cutoff gives 2 sqrt(pi)
        spec = power_law(nu=0.5, epsilon=1e-12)
        assert_allclose(theta_first_moment(spec), 2.0 * np.sqrt(np.pi), rtol=1e-5)

    def test_theta_moment_against_quadrature(self):
        for spec in (hard_sphere(epsilon=0.4), power_law(nu=0.6, epsilon=0.02)):
            if spec.angular == HARD_SPHERE:
                fn = lambda t: t * np.sin(t / 2) * np.cos(t / 2)
            else:
                fn = lambda t: t * t ** (-1.0 - spec.nu)
            val, _ = quad(fn, spec.epsilon, np.pi, epsrel=1e-12)
            assert_allclose(theta_first_moment(spec), val, rtol=1e-10)

    def test_hard_sphere_weighted_masses(self):
        spec = hard_sphere()
        assert_allclose(angular_weighted_mass(spec, "sin2_half"), 0.5, rtol=1e-15)
        assert_allclose(
            angular_weighted_mass(spec, "sin4_half"), 1.0 / 3.0, rtol=1e-15
        )

    def test_weighted_masses_against_quadrature(self):
        weights = {
            "sin2_half": lambda t: np.sin(t / 2) ** 2,
            "sin4_half": lambda t: np.sin(t / 2) ** 4,
        }
        for spec in (hard_sphere(epsilon=0.3), power_law(nu=0.4, epsilon=0.03)):
            for name, w in weights.items():
                if spec.angular == HARD_SPHERE:
                    fn = lambda t: w(t) * np.sin(t / 2) * np.cos(t / 2)
                else:
                    fn = lambda t: w(t) * t ** (-1.0 - spec.nu)
                val, _ = quad(fn, spec.epsilon, np.pi, epsrel=1e-12)
                assert_allclose(
                    angular_weighted_mass(spec, name), val, rtol=1e-9
                )

    @pytest.mark.parametrize("nu", [0.01, 0.3, 0.7, 0.99])
    def test_power_law_series_against_quadrature(self, nu):
        # the cosine series over the grazing range and up to eps near pi
        for eps in (0.0, 1e-12, 1e-3, 0.5, 2.0, 3.14):
            spec = power_law(nu=nu, epsilon=max(eps, 1e-3))
            for name, k in (("sin2_half", 2), ("sin4_half", 4)):
                val, _ = quad(
                    lambda t: np.sin(t / 2) ** k * t ** (-1.0 - nu),
                    eps, np.pi, epsabs=0.0, epsrel=1e-13, limit=400,
                )
                assert_allclose(
                    angular_weighted_mass(spec, name, epsilon=eps), val,
                    rtol=1e-12, err_msg=f"{name} nu={nu} eps={eps}",
                )

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            angular_weighted_mass(hard_sphere(), "cos_half")
        for spec in (hard_sphere(), power_law(nu=0.5, epsilon=0.05)):
            with pytest.raises(ValueError):
                angular_weighted_mass(spec, "sin_half")
