"""Velocity-space cutoff: projection, truncated rates, energy defect."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas.densities import BoxMaxwellianModel
from boltzgas.engine import jump_intensity
from boltzgas.geometry import deflection_alpha, row_norms
from boltzgas.kernels import HARD_SPHERE, KernelSpec, sigma
from boltzgas.truncation import alpha_j, energy_defect, project_j


def truncated_sigma(spec, z, v, j):
    """The localized cross section ``sigma(|project_j(z) - v|)``."""
    return sigma(spec, row_norms(project_j(z, j) - v))


class TestProjection:
    def test_identity_inside_ball(self):
        rng = np.random.default_rng(61)
        z = rng.standard_normal((1000, 3))
        j = 5.0
        out = project_j(z, j)
        # |z| <= j must leave the input bitwise unchanged
        assert np.all(out == z)

    def test_worked_example(self):
        out = project_j(np.array([0.0, 0.0, 5.0]), 2.0)
        assert_allclose(out, [0.0, 0.0, 1.25], rtol=1e-15)

    def test_norm_cap(self):
        rng = np.random.default_rng(62)
        z = 30.0 * rng.standard_normal((200000, 3))
        j = rng.uniform(1.0, 20.0, 200000)
        out = project_j(z, j)
        norms = np.linalg.norm(out, axis=1)
        cap = np.minimum(j, np.linalg.norm(z, axis=1))
        # equality cases sit at the float boundary, hence the ulp slack
        assert np.all(norms <= cap * (1.0 + 4.0 * np.finfo(float).eps))

    def test_direction_preserved(self):
        rng = np.random.default_rng(63)
        z = 10.0 * rng.standard_normal((500, 3))
        out = project_j(z, 1.5)
        cross = np.cross(z, out)
        assert_allclose(cross, 0.0, atol=1e-12)
        assert np.all(np.sum(z * out, axis=1) >= 0.0)

    def test_level_below_one_rejected(self):
        # the norm cap min(j, |z|) fails for j < 1, so such levels are
        # rejected outright
        with pytest.raises(ValueError):
            project_j(np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            project_j(np.zeros(3), np.inf)

    def test_continuity_at_boundary(self):
        j = 2.0
        z_in = np.array([0.0, 0.0, 2.0 - 1e-12])
        z_out = np.array([0.0, 0.0, 2.0 + 1e-12])
        assert np.linalg.norm(project_j(z_in, j) - project_j(z_out, j)) < 1e-11


class TestTruncatedDeflection:
    def test_matches_plain_deflection_inside_ball(self):
        rng = np.random.default_rng(64)
        n = 2000
        z = rng.standard_normal((n, 3))
        v = rng.standard_normal((n, 3))
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2 * np.pi, n)
        j = 10.0
        a_trunc = alpha_j(z, v, theta, phi, j)
        a_plain = deflection_alpha(z, v, theta, phi)
        # projection is a bitwise no-op inside the ball, so the two
        # routes share every float operation
        assert np.all(a_trunc == a_plain)

    def test_uses_projected_velocity(self):
        z = np.array([0.0, 0.0, 5.0])
        v = np.zeros(3)
        a = alpha_j(z, v, np.pi / 2, 0.0, 2.0)
        expected = deflection_alpha(project_j(z, 2.0), v, np.pi / 2, 0.0)
        assert_allclose(a, expected, rtol=0.0, atol=0.0)


class TestTruncatedRate:
    def test_uniform_bound(self):
        rng = np.random.default_rng(65)
        spec = KernelSpec(gamma=0.8, c=1.3, angular=HARD_SPHERE)
        n = 100000
        z = 50.0 * rng.standard_normal((n, 3))
        v = 5.0 * rng.standard_normal((n, 3))
        j = 3.0
        rate = truncated_sigma(spec, z, v, j)
        bound = spec.c * (j + np.linalg.norm(v, axis=1)) ** spec.gamma
        assert np.all(rate <= bound * (1.0 + 1e-14))
        # a unit box has f(t, x | v) = 1, so the engine's intensity is the
        # cross section itself
        unit = BoxMaxwellianModel(side=1.0)
        intensity = jump_intensity(unit, spec, 0.0, np.zeros(3), project_j(z, j), v)
        assert np.array_equal(intensity, rate)

    def test_gamma_zero_constant(self):
        spec = KernelSpec(gamma=0.0, c=2.0, angular=HARD_SPHERE)
        rng = np.random.default_rng(66)
        z = rng.standard_normal((100, 3))
        v = rng.standard_normal((100, 3))
        assert_allclose(truncated_sigma(spec, z, v, 2.0), 2.0, rtol=0.0)


class TestEnergyDefect:
    def test_worked_example(self):
        z = np.array([0.0, 0.0, 5.0])
        v = np.zeros(3)
        val = energy_defect(z, v, np.pi / 2, 0.0, 2.0)
        assert_allclose(val, -4.6875, rtol=1e-12)

    def test_energy_balance_identity(self):
        # |z + a_j|^2 - |z|^2 = |v|^2 - |v - a_j|^2 + E_j pointwise
        rng = np.random.default_rng(67)
        n = 50000
        z = 8.0 * rng.standard_normal((n, 3))
        v = 3.0 * rng.standard_normal((n, 3))
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2 * np.pi, n)
        j = 2.5
        a = alpha_j(z, v, theta, phi, j)
        lhs = np.sum((z + a) ** 2, axis=1) - np.sum(z * z, axis=1)
        rhs = (
            np.sum(v * v, axis=1)
            - np.sum((v - a) ** 2, axis=1)
            + energy_defect(z, v, theta, phi, j)
        )
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)

    def test_vanishes_inside_ball(self):
        # inside the ball the truncated jump conserves energy exactly,
        # because the collision partner velocity is not projected
        rng = np.random.default_rng(68)
        n = 1000
        z = 0.5 * rng.standard_normal((n, 3))
        v = rng.standard_normal((n, 3))
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2 * np.pi, n)
        vals = energy_defect(z, v, theta, phi, 10.0)
        assert_allclose(vals, 0.0, atol=1e-12)


class TestShapeRule:
    """3-vectors on the last axis; leading axes and levels broadcast."""

    def inputs(self, n=40):
        rng = np.random.default_rng(69)
        z = 3.0 * rng.standard_normal((n, 3))
        v = rng.standard_normal((n, 3))
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2 * np.pi, n)
        return z, v, theta, phi

    def calls(self):
        spec = KernelSpec(gamma=0.5, c=1.3, angular=HARD_SPHERE)
        return {
            "project": lambda z, v, th, ph: project_j(z, 2.0),
            "alpha": lambda z, v, th, ph: alpha_j(z, v, th, ph, 2.0),
            "sigma": lambda z, v, th, ph: truncated_sigma(spec, z, v, 2.0),
            "defect": lambda z, v, th, ph: energy_defect(z, v, th, ph, 2.0),
        }

    def test_single_calls_equal_batch_rows(self):
        args = self.inputs()
        for name, call in self.calls().items():
            batch = call(*args)
            for i in range(len(args[0])):
                single = call(*(a[i] for a in args))
                assert np.shape(single) == batch.shape[1:]
                assert np.array_equal(batch[i], single), (name, i)

    def test_single_z_broadcasts_against_batch_v(self):
        z, v, theta, phi = self.inputs()
        tiled = np.tile(z[0], (len(v), 1))
        for name, call in self.calls().items():
            if name != "project":  # the only call without a batch of v
                assert np.array_equal(
                    call(z[0], v, theta, phi), call(tiled, v, theta, phi)
                ), name

    def test_level_per_row(self):
        z, _, _, _ = self.inputs()
        levels = np.linspace(1.0, 6.0, len(z))
        batch = project_j(z, levels)
        for i in range(len(z)):
            assert np.array_equal(batch[i], project_j(z[i], levels[i]))

    @pytest.mark.parametrize(
        "bad", [np.ones(4), np.ones((5, 2)), np.ones(()), np.array([1.0, np.nan, 0.0])]
    )
    def test_every_function_rejects_bad_vectors(self, bad):
        good = np.array([0.3, -0.2, 1.0])
        for name, call in self.calls().items():
            # the cross section checks z through project_j; its v rows are
            # candidate draws, which kernels.sigma takes unchecked
            if name not in ("project", "sigma"):
                with pytest.raises(ValueError):
                    call(good, bad, 1.0, 0.4)
            with pytest.raises(ValueError):
                call(bad, good, 1.0, 0.4)
