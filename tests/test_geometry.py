"""Scattering kinematics: frames, deflections, conservation, alignment."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas.geometry import (
    deflection_alpha,
    gamma,
    orthonormal_frame,
    post_collision,
    row_norms,
    tanaka_rotation,
)


def random_vectors(rng, n, scale=3.0):
    return scale * rng.standard_normal((n, 3))


def rodrigues_rotation(w, w2):
    """Oracle for ``tanaka_rotation`` on nonzero rows: the full 3x3 matrix.

    Builds the minimal rotation taking ``w/|w|`` onto ``w2/|w2|`` by the
    Rodrigues formula, or the half turn about the unit I-axis of ``w``
    when the pair is within 1e-12 of antiparallel, applies it to that
    axis and reads the angle off the frame of ``w2``.
    """
    n1 = np.linalg.norm(w, axis=1, keepdims=True)
    n2 = np.linalg.norm(w2, axis=1, keepdims=True)
    a_hat, b_hat = w / n1, w2 / n2
    ia = orthonormal_frame(w).i_axis / n1
    frame_b = orthonormal_frame(w2)
    c = np.einsum("ij,ij->i", a_hat, b_hat)
    axis = np.cross(a_hat, b_hat)
    s = np.linalg.norm(axis, axis=1)
    rot = np.empty((len(w), 3, 3))
    generic = s > 1e-12
    k = axis[generic] / s[generic, np.newaxis]
    cross_k = np.zeros((len(k), 3, 3))
    cross_k[:, 0, 1], cross_k[:, 0, 2] = -k[:, 2], k[:, 1]
    cross_k[:, 1, 0], cross_k[:, 1, 2] = k[:, 2], -k[:, 0]
    cross_k[:, 2, 0], cross_k[:, 2, 1] = -k[:, 1], k[:, 0]
    cg = c[generic, np.newaxis, np.newaxis]
    sg = s[generic, np.newaxis, np.newaxis]
    kkt = k[:, :, np.newaxis] * k[:, np.newaxis, :]
    rot[generic] = cg * np.eye(3) + sg * cross_k + (1.0 - cg) * kkt
    rot[~generic & (c > 0.0)] = np.eye(3)
    anti = ~generic & (c <= 0.0)
    u = ia[anti]
    rot[anti] = 2.0 * u[:, :, np.newaxis] * u[:, np.newaxis, :] - np.eye(3)
    ia_rot = np.einsum("nij,nj->ni", rot, ia)
    ang = np.arctan2(
        np.einsum("ij,ij->i", ia_rot, frame_b.j_axis / n2),
        np.einsum("ij,ij->i", ia_rot, frame_b.i_axis / n2),
    )
    return np.mod(ang, 2.0 * np.pi)


def angle_gap(phi, psi):
    """Distance between angles on the circle."""
    return np.abs(np.mod(phi - psi + np.pi, 2.0 * np.pi) - np.pi)


class TestOrthonormalFrame:
    def test_unit_x_axis(self):
        frame = orthonormal_frame(np.array([1.0, 0.0, 0.0]))
        assert_allclose(frame.i_axis, [0.0, 0.0, 1.0], atol=0.0)
        assert_allclose(frame.j_axis, [0.0, -1.0, 0.0], atol=0.0)

    def test_orthogonality_and_scaling(self):
        rng = np.random.default_rng(11)
        w = random_vectors(rng, 500)
        frame = orthonormal_frame(w)
        norms = np.linalg.norm(w, axis=1)
        assert_allclose(np.linalg.norm(frame.i_axis, axis=1), norms, rtol=1e-13)
        assert_allclose(np.linalg.norm(frame.j_axis, axis=1), norms, rtol=1e-13)
        assert_allclose(np.sum(frame.i_axis * w, axis=1), 0.0, atol=1e-12)
        assert_allclose(np.sum(frame.j_axis * w, axis=1), 0.0, atol=1e-12)
        assert_allclose(np.sum(frame.i_axis * frame.j_axis, axis=1), 0.0, atol=1e-12)

    def test_right_handedness(self):
        rng = np.random.default_rng(12)
        w = random_vectors(rng, 200)
        frame = orthonormal_frame(w)
        norms = np.linalg.norm(w, axis=1)
        cross = np.cross(w / norms[:, None], frame.i_axis)
        assert_allclose(cross, frame.j_axis, atol=1e-11)

    def test_zero_vector_gives_zero_frame(self):
        frame = orthonormal_frame(np.zeros(3))
        assert_allclose(frame.i_axis, 0.0, atol=0.0)
        assert_allclose(frame.j_axis, 0.0, atol=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            orthonormal_frame(np.array([np.nan, 0.0, 1.0]))


class TestGamma:
    def test_axis_example(self):
        out = gamma(np.array([0.0, 0.0, 2.0]), 0.0)
        assert_allclose(out, [0.0, 2.0, 0.0], atol=0.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        w = random_vectors(rng, 400)
        phi = rng.uniform(0.0, 2.0 * np.pi, 400)
        out = gamma(w, phi)
        assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(w, axis=1), rtol=1e-12
        )

    def test_orthogonal_to_w(self):
        rng = np.random.default_rng(22)
        w = random_vectors(rng, 400)
        phi = rng.uniform(0.0, 2.0 * np.pi, 400)
        out = gamma(w, phi)
        assert_allclose(np.sum(out * w, axis=1), 0.0, atol=1e-11)

    def test_angular_average_vanishes(self):
        # The discrete mean over an equispaced phi grid of cos and sin is
        # exactly zero, so the average inherits that exactness.
        w = np.array([0.3, -1.2, 2.0])
        phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        vals = gamma(np.tile(w, (64, 1)), phi)
        assert_allclose(vals.mean(axis=0), 0.0, atol=1e-14)

    def test_second_angular_moment(self):
        # int_0^2pi Gamma Gamma^T dphi = pi (|w|^2 I - w w^T); the
        # equispaced average of cos^2 and sin^2 is exactly 1/2.
        rng = np.random.default_rng(23)
        for _ in range(10):
            w = 2.0 * rng.standard_normal(3)
            phi = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
            vals = gamma(np.tile(w, (128, 1)), phi)
            second = 2.0 * np.pi * np.einsum("ni,nj->ij", vals, vals) / 128
            expected = np.pi * (np.dot(w, w) * np.eye(3) - np.outer(w, w))
            assert_allclose(second, expected, atol=1e-11 * np.dot(w, w))


class TestDeflection:
    def test_head_on_swaps_velocities(self):
        z = np.array([1.0, -2.0, 0.5])
        v = np.array([-0.3, 0.4, 2.0])
        z_post, v_post = post_collision(z, v, np.pi, 1.234)
        assert_allclose(z_post, v, rtol=0.0, atol=1e-15)
        assert_allclose(v_post, z, rtol=0.0, atol=1e-15)

    def test_conservation_sweep(self):
        rng = np.random.default_rng(31)
        n = 5000
        z = random_vectors(rng, n)
        v = random_vectors(rng, n)
        theta = rng.uniform(1e-6, np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        z_post, v_post = post_collision(z, v, theta, phi)
        assert_allclose(z_post + v_post, z + v, rtol=1e-13, atol=1e-13)
        energy_pre = np.sum(z * z, axis=1) + np.sum(v * v, axis=1)
        energy_post = np.sum(z_post * z_post, axis=1) + np.sum(v_post * v_post, axis=1)
        assert_allclose(energy_post, energy_pre, rtol=1e-12)
        rel_pre = np.linalg.norm(v - z, axis=1)
        rel_post = np.linalg.norm(v_post - z_post, axis=1)
        assert_allclose(rel_post, rel_pre, rtol=1e-12)

    def test_deflection_magnitude(self):
        rng = np.random.default_rng(32)
        n = 2000
        z = random_vectors(rng, n)
        v = random_vectors(rng, n)
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        alpha = deflection_alpha(z, v, theta, phi)
        expected = np.linalg.norm(v - z, axis=1) * np.sin(theta / 2.0)
        assert_allclose(np.linalg.norm(alpha, axis=1), expected, rtol=1e-11)

    def test_mean_deflection_over_phi(self):
        # E_phi[alpha] = sin^2(theta/2) (v - z) exactly on equispaced grids.
        z = np.array([0.5, 0.0, -1.0])
        v = np.array([-1.0, 2.0, 0.0])
        theta = 1.1
        phi = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
        alpha = deflection_alpha(
            np.tile(z, (96, 1)), np.tile(v, (96, 1)), theta, phi
        )
        expected = np.sin(theta / 2.0) ** 2 * (v - z)
        assert_allclose(alpha.mean(axis=0), expected, atol=1e-14)

    def test_lipschitz_in_velocities(self):
        # |alpha(z, v) - alpha(z', v')| <= 2 theta (|z - z'| + |v - v'|)
        # once the azimuthal frames are aligned by the matching rotation.
        rng = np.random.default_rng(33)
        n = 3000
        z = random_vectors(rng, n)
        v = random_vectors(rng, n)
        z2 = z + 0.3 * rng.standard_normal((n, 3))
        v2 = v + 0.3 * rng.standard_normal((n, 3))
        theta = rng.uniform(1e-4, np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        phi0 = tanaka_rotation(z, v, z2, v2)
        a1 = deflection_alpha(z, v, theta, phi)
        a2 = deflection_alpha(z2, v2, theta, phi + phi0)
        lhs = np.linalg.norm(a1 - a2, axis=1)
        rhs = 2.0 * theta * (
            np.linalg.norm(z - z2, axis=1) + np.linalg.norm(v - v2, axis=1)
        )
        assert np.all(lhs <= rhs + 1e-12)


class TestTanakaRotation:
    def bound_holds(self, w, w2, n_phi=181):
        phi0 = tanaka_rotation(
            np.zeros_like(w), w, np.zeros_like(w2), w2
        )
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi)
        gap = 0.0
        for i in range(len(w)):
            g1 = gamma(np.tile(w[i], (n_phi, 1)), phi)
            g2 = gamma(np.tile(w2[i], (n_phi, 1)), phi + phi0[i])
            dist = np.linalg.norm(g1 - g2, axis=1).max()
            bound = 3.0 * np.linalg.norm(w[i] - w2[i])
            gap = max(gap, dist - bound)
        return gap

    def test_bound_random_pairs(self):
        rng = np.random.default_rng(41)
        w = random_vectors(rng, 60)
        w2 = w + rng.standard_normal((60, 3))
        assert self.bound_holds(w, w2) <= 1e-10

    def test_bound_near_antiparallel(self):
        rng = np.random.default_rng(42)
        w = random_vectors(rng, 40)
        w2 = -w + 1e-3 * rng.standard_normal((40, 3))
        assert self.bound_holds(w, w2) <= 1e-10

    def test_bound_tiny_perturbations(self):
        rng = np.random.default_rng(43)
        w = random_vectors(rng, 40)
        w2 = w + 1e-9 * rng.standard_normal((40, 3))
        assert self.bound_holds(w, w2) <= 1e-10

    def test_identical_vectors_need_no_rotation(self):
        rng = np.random.default_rng(44)
        w = random_vectors(rng, 50)
        phi0 = tanaka_rotation(np.zeros_like(w), w, np.zeros_like(w), w)
        assert_allclose(phi0, 0.0, atol=1e-12)

    def test_degenerate_inputs_return_zero(self):
        z = np.zeros((3, 3))
        v = np.zeros((3, 3))
        phi0 = tanaka_rotation(z, v, z, v)
        assert_allclose(phi0, 0.0, atol=0.0)

    def test_matches_rodrigues_matrix_oracle(self):
        rng = np.random.default_rng(46)
        w = random_vectors(rng, 4000)
        w2 = np.concatenate([
            random_vectors(rng, 2000),
            w[2000:3000] + 1e-7 * rng.standard_normal((1000, 3)),
            w[3000:] + 0.3 * rng.standard_normal((1000, 3)),
        ])
        cos = np.sum(w * w2, axis=1) / (
            np.linalg.norm(w, axis=1) * np.linalg.norm(w2, axis=1)
        )
        keep = cos > -0.99
        phi0 = tanaka_rotation(np.zeros_like(w), w, np.zeros_like(w2), w2)
        gap = angle_gap(phi0[keep], rodrigues_rotation(w[keep], w2[keep]))
        assert keep.sum() > 3900
        assert gap.max() <= 1e-12

    def test_exactly_antiparallel_pair_takes_the_half_turn(self):
        rng = np.random.default_rng(47)
        w = random_vectors(rng, 50)
        phi0 = tanaka_rotation(np.zeros_like(w), w, np.zeros_like(w), -w)
        assert np.array_equal(phi0, rodrigues_rotation(w, -w))
        assert_allclose(phi0, np.pi, atol=1e-15)

    def test_special_pairs_raise_no_floating_point_error(self):
        rng = np.random.default_rng(48)
        w = random_vectors(rng, 12)
        w[0] = [0.0, 0.0, 2.0]
        w[1] = [1.0, 1.0, 0.0]
        pairs = {
            "aligned": 2.5 * w,
            "identical": w.copy(),
            "antiparallel": -w,
            "scaled antiparallel": -0.4 * w,
            "near antiparallel": -w + 1e-9 * rng.standard_normal(w.shape),
        }
        with np.errstate(all="raise"):
            for name, w2 in pairs.items():
                phi0 = tanaka_rotation(np.zeros_like(w), w, np.zeros_like(w2), w2)
                assert np.all((phi0 >= 0.0) & (phi0 < 2.0 * np.pi)), name
            zero = np.zeros_like(w)
            assert np.array_equal(tanaka_rotation(zero, zero, zero, w), np.zeros(12))
            assert np.array_equal(tanaka_rotation(zero, w, zero, zero), np.zeros(12))
        for name, w2 in pairs.items():
            assert self.bound_holds(w, w2) <= 1e-10, name

    def test_range(self):
        rng = np.random.default_rng(45)
        w = random_vectors(rng, 300)
        w2 = random_vectors(rng, 300)
        phi0 = tanaka_rotation(np.zeros_like(w), w, np.zeros_like(w2), w2)
        assert np.all(phi0 >= 0.0)
        assert np.all(phi0 < 2.0 * np.pi)


class TestRowNorms:
    def test_each_row_is_the_single_vector_norm(self):
        rows = random_vectors(np.random.default_rng(71), 4000)
        norms = row_norms(rows)
        assert norms.shape == (4000,)
        for i in range(len(rows)):
            assert norms[i] == np.linalg.norm(rows[i]), i
        assert row_norms(rows[0]) == np.linalg.norm(rows[0])
        # a last-axis sum of squares rounds some rows differently
        assert np.any(np.linalg.norm(rows, axis=1) != norms)


class TestShapeRule:
    """3-vectors on the last axis; leading axes and angles broadcast."""

    def inputs(self, n=40):
        rng = np.random.default_rng(51)
        z = random_vectors(rng, n)
        v = random_vectors(rng, n)
        v[::7] = z[::7]  # zero relative velocity
        v[3] = np.array([0.0, 0.0, 2.0])  # axis-aligned
        z[3] = 0.0
        z2 = z + 0.3 * rng.standard_normal((n, 3))
        v2 = -v
        theta = rng.uniform(0.0, np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        return z, v, z2, v2, theta, phi

    def calls(self):
        return {
            "frame": lambda z, v, z2, v2, th, ph: tuple(orthonormal_frame(v - z)),
            "gamma": lambda z, v, z2, v2, th, ph: gamma(v - z, ph),
            "alpha": lambda z, v, z2, v2, th, ph: deflection_alpha(z, v, th, ph),
            "post": lambda z, v, z2, v2, th, ph: post_collision(z, v, th, ph),
            "tanaka": lambda z, v, z2, v2, th, ph: tanaka_rotation(z, v, z2, v2),
        }

    def test_single_calls_equal_batch_rows(self):
        args = self.inputs()
        for name, call in self.calls().items():
            batch = call(*args)
            for i in range(len(args[0])):
                single = call(*(a[i] for a in args))
                if name in ("frame", "post"):
                    for b, s in zip(batch, single):
                        assert s.shape == (3,)
                        assert np.array_equal(b[i], s), (name, i)
                elif name == "tanaka":
                    assert batch[i] == single, (name, i)
                else:
                    assert single.shape == (3,)
                    assert np.array_equal(batch[i], single), (name, i)

    def test_single_z_broadcasts_against_batch_v(self):
        z, v, z2, v2, theta, phi = self.inputs()
        tiled = np.tile(z[0], (len(v), 1))
        assert np.array_equal(
            deflection_alpha(z[0], v, theta, phi),
            deflection_alpha(tiled, v, theta, phi),
        )
        assert np.array_equal(
            tanaka_rotation(z[0], v, z2[0], v2),
            tanaka_rotation(tiled, v, np.tile(z2[0], (len(v), 1)), v2),
        )

    def test_angle_grid_on_one_vector(self):
        z, v, _, _, _, phi = self.inputs()
        out = deflection_alpha(z[0], v[0], 0.9, phi)
        assert out.shape == (len(phi), 3)
        for k in range(len(phi)):
            assert np.array_equal(out[k], deflection_alpha(z[0], v[0], 0.9, phi[k]))

    def test_tanaka_single_vectors_return_float(self):
        z, v, z2, v2, _, _ = self.inputs()
        assert type(tanaka_rotation(z[1], v[1], z2[1], v2[1])) is float
        assert type(tanaka_rotation(z[0], z[0], z2[0], v2[0])) is float
        assert tanaka_rotation(z[:1], v[:1], z2[:1], v2[:1]).shape == (1,)

    @pytest.mark.parametrize(
        "bad", [np.ones(4), np.ones((5, 2)), np.ones(()), np.array([1.0, np.inf, 0.0])]
    )
    def test_every_function_rejects_bad_vectors(self, bad):
        good = np.array([0.3, -0.2, 1.0])
        with pytest.raises(ValueError):
            orthonormal_frame(bad)
        with pytest.raises(ValueError):
            gamma(bad, 0.4)
        for k in range(2):
            args = [good, good]
            args[k] = bad
            with pytest.raises(ValueError):
                deflection_alpha(*args, 1.0, 0.4)
            with pytest.raises(ValueError):
                post_collision(*args, 1.0, 0.4)
        for k in range(4):
            args = [good, -good, good, 2.0 * good]
            args[k] = bad
            with pytest.raises(ValueError):
                tanaka_rotation(*args)
