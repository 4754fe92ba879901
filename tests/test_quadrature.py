"""Deterministic integration toolbox: rules, sphere moments, radial forms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from boltzgas import quadrature
from boltzgas.quadrature import (
    gauss_hermite_3d,
    gauss_legendre,
    radial_gaussian_moment,
    sphere_exp_moments_scaled,
)


def radial_gaussian_moment_adaptive(z_norm, s, p, q, radial_factor=None):
    """Adaptive-quadrature route to ``T_{p,q}`` for a scalar speed.

    Slow but accurate to relative ~1e-12; the independent cross-check
    of the fixed-node route.
    """
    zn = float(z_norm)
    pref = 2.0 * np.pi * (2.0 * np.pi * s) ** (-1.5)

    def integrand(r):
        a = np.atleast_1d(zn * r / s)
        mom = sphere_exp_moments_scaled(a, p)[p][0]
        val = r ** (2.0 + q) * np.exp(-((r - zn) ** 2) / (2.0 * s)) * mom
        if radial_factor is not None:
            val = val * float(radial_factor(np.atleast_1d(r))[0])
        return val

    hi = zn + 16.0 * np.sqrt(s)
    val, _err = quad(integrand, 0.0, hi, epsabs=1e-14, epsrel=1e-12,
                     limit=400, points=[zn] if 0.0 < zn < hi else None)
    return pref * val


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre(8, -1.5, 2.5)
        for k in range(16):
            val = np.sum(w * x**k)
            exact = (2.5 ** (k + 1) - (-1.5) ** (k + 1)) / (k + 1)
            assert_allclose(val, exact, rtol=1e-12, atol=1e-14)

    def test_interval_mapping(self):
        x, w = gauss_legendre(5, 2.0, 3.0)
        assert np.all((x > 2.0) & (x < 3.0))
        assert_allclose(w.sum(), 1.0, rtol=1e-14)


class TestGaussHermite3d:
    def test_gaussian_moments(self):
        s = 0.7
        nodes, weights = gauss_hermite_3d(8, s)
        assert_allclose(weights.sum(), 1.0, rtol=1e-13)
        assert_allclose(weights @ nodes, 0.0, atol=1e-13)
        cov = np.einsum("n,ni,nj->ij", weights, nodes, nodes)
        assert_allclose(cov, s * np.eye(3), atol=1e-12)
        # |v|^4 is a degree-4 polynomial, integrated exactly
        m4 = weights @ np.sum(nodes**2, axis=1) ** 2
        assert_allclose(m4, 15.0 * s**2, rtol=1e-12)

    def test_smooth_non_polynomial(self):
        nodes, weights = gauss_hermite_3d(40, 1.0)
        val = weights @ np.cos(nodes[:, 0] + 0.5 * nodes[:, 1])
        # E cos(a X + b Y) = exp(-(a^2 + b^2)/2)
        assert_allclose(val, np.exp(-0.625), rtol=1e-10)


class TestSphereMoments:
    # the adaptive oracle reports roundoff saturation at a = 400, where
    # the scaled moments sit near 1e-175; the comparison still holds
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_adaptive_quadrature(self):
        for a in (0.0, 0.01, 0.4999, 0.5, 3.0, 40.0, 400.0):
            vals = sphere_exp_moments_scaled(np.array([a]), 6)
            for p in range(7):
                exact, _ = quad(
                    lambda mu: mu**p * np.exp(-a * (mu + 1.0)), -1.0, 1.0,
                    epsrel=1e-13, epsabs=1e-300,
                )
                assert_allclose(
                    vals[p][0], exact, rtol=1e-10, atol=1e-280,
                    err_msg=f"a={a}, p={p}",
                )

    def test_zero_argument(self):
        vals = sphere_exp_moments_scaled(np.array([0.0]), 4)
        # m_p(0) = 2/(p+1) for even p, 0 for odd p
        assert_allclose(vals[0][0], 2.0, rtol=1e-14)
        assert_allclose(vals[1][0], 0.0, atol=1e-14)
        assert_allclose(vals[2][0], 2.0 / 3.0, rtol=1e-13)
        assert_allclose(vals[3][0], 0.0, atol=1e-14)
        assert_allclose(vals[4][0], 0.4, rtol=1e-13)

    def test_continuity_at_route_switch(self):
        # the series route hands over to the recursion at a = 0.5
        lo = sphere_exp_moments_scaled(np.array([0.5 - 1e-9]), 5)
        hi = sphere_exp_moments_scaled(np.array([0.5 + 1e-9]), 5)
        assert_allclose(lo[:, 0], hi[:, 0], rtol=1e-7)


class TestRadialGaussianMoment:
    def test_mass_normalisation(self):
        # T_{0,0} integrates the Maxwellian itself
        zn = np.array([0.0, 0.4, 2.0, 9.0])
        vals = radial_gaussian_moment(zn, 0.9, 0, 0)
        assert_allclose(vals, 1.0, rtol=1e-12)

    def test_second_moment_closed_form(self):
        # T_{0,2} = E|z + w|^2 with w centered: |z|^2 + 3 s
        s = 1.3
        zn = np.array([0.0, 0.7, 3.0])
        vals = radial_gaussian_moment(zn, s, 0, 2)
        assert_allclose(vals, zn**2 + 3.0 * s, rtol=1e-12)

    def test_first_directional_moment(self):
        # int (zhat . what) |w| M(z + w) dw relates to E[(z . w)]/|z|;
        # with u = z + w, E[(z . (u - z))] = -|z|^2, so
        # |z| T_{1,1} = -|z|^2 and T_{1,1} = -|z|.
        s = 0.8
        zn = np.array([0.3, 1.0, 4.0])
        vals = radial_gaussian_moment(zn, s, 1, 1)
        assert_allclose(vals, -zn, rtol=1e-11)

    def test_against_adaptive(self):
        s = 0.6
        for p, q in [(0, 0.0), (0, 1.0), (1, 2.0), (2, 3.0), (0, -1.5), (3, 1.0)]:
            for zn in (0.0, 0.25, 1.7, 6.0):
                fast = radial_gaussian_moment(np.array([zn]), s, p, q)[0]
                slow = radial_gaussian_moment_adaptive(zn, s, p, q)
                assert_allclose(
                    fast, slow, rtol=1e-9, err_msg=f"p={p} q={q} zn={zn}"
                )

    def test_monte_carlo_cross_check(self):
        # independent stochastic route for a nontrivial (p, q) pair
        rng = np.random.default_rng(77)
        s = 1.1
        z = np.array([0.0, 0.0, 1.4])
        w = np.sqrt(s) * rng.standard_normal((400000, 3)) - z
        r = np.linalg.norm(w, axis=1)
        mu = w[:, 2] / np.where(r > 0, r, 1.0)
        sample = r**1.5 * mu**2
        mc = sample.mean()
        se = sample.std() / np.sqrt(len(sample))
        exact = radial_gaussian_moment(np.array([1.4]), s, 2, 1.5)[0]
        assert abs(mc - exact) < 4.0 * se

    def test_gamma_like_negative_powers(self):
        # soft-potential exponents down to -1 stay integrable
        vals = radial_gaussian_moment(np.array([0.0, 1.0]), 1.0, 0, -0.999)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0.0)


class TestOrderSequences:
    # the nine tilted orders of a quadratic observable against a BKW
    # component at gamma = 0.5: (p, q), (p+1, q+1), (p, q+2) for each of
    # (1, 1.5), (0, 2.5) and (2, 2.5)
    PS = [1, 2, 1, 0, 1, 0, 2, 3, 2]
    QS = [1.5, 2.5, 3.5, 2.5, 3.5, 4.5, 2.5, 3.5, 4.5]

    @pytest.mark.parametrize("factor", [None, lambda r: np.exp(-0.3 * r * r)],
                             ids=["plain", "radial_factor"])
    def test_each_row_is_the_single_order_call(self, factor):
        zn = np.concatenate([[0.0, 1e-3], np.linspace(0.05, 7.0, 61)])
        rows = radial_gaussian_moment(zn, 0.45, self.PS, self.QS,
                                      radial_factor=factor)
        assert rows.shape == (9, len(zn))
        for row, p, q in zip(rows, self.PS, self.QS):
            one = radial_gaussian_moment(zn, 0.45, p, q, radial_factor=factor)
            assert row.tobytes() == one.tobytes(), (p, q)

    @pytest.mark.parametrize("factor", [None, lambda r: np.exp(-0.3 * r * r)],
                             ids=["plain", "radial_factor"])
    def test_each_speed_is_its_call_beside_the_fastest(self, factor):
        # every speed has its own node window, so neither the fastest
        # speed nor any other of the call moves a speed's value
        zn = np.concatenate([[0.0, 1e-3], np.linspace(0.05, 7.0, 61)])
        rows = radial_gaussian_moment(zn, 0.45, self.PS, self.QS,
                                      radial_factor=factor)
        for k in range(len(zn)):
            pair = radial_gaussian_moment(zn[[k, -1]], 0.45, self.PS, self.QS,
                                          radial_factor=factor)
            assert pair[:, 0].tobytes() == rows[:, k].tobytes(), k
        fastest = radial_gaussian_moment(zn[-1], 0.45, self.PS, self.QS,
                                         radial_factor=factor)
        assert fastest.tobytes() == rows[:, -1].tobytes()

    def test_one_speed_call_matches_the_batch(self):
        pair = radial_gaussian_moment(np.array([0.2, 1.3]), 0.7, 2, 1.0)
        assert pair[1] == radial_gaussian_moment(1.3, 0.7, 2, 1.0)

    def test_shared_table_rows_do_not_depend_on_pmax(self):
        a = np.linspace(0.0, 3.0, 301)
        full = sphere_exp_moments_scaled(a, 6)
        for pmax in range(6):
            part = sphere_exp_moments_scaled(a, pmax)
            assert part.tobytes() == full[: pmax + 1].tobytes(), pmax

    def test_return_types(self):
        single = radial_gaussian_moment(1.3, 0.7, 2, 1.0)
        assert type(single) is float
        batch = radial_gaussian_moment(np.array([1.3]), 0.7, 2, 1.0)
        assert batch.shape == (1,)
        assert batch[0] == single
        rows = radial_gaussian_moment(1.3, 0.7, [2, 0], [1.0, 2.0])
        assert rows.shape == (2,)
        assert rows[0] == single

    def test_orders_are_checked(self):
        with pytest.raises(ValueError, match="2 sphere orders but 1"):
            radial_gaussian_moment(np.array([1.0]), 1.0, [0, 1], [1.0])
        with pytest.raises(ValueError, match="exceed -3"):
            radial_gaussian_moment(np.array([1.0]), 1.0, [0, 1], [1.0, -3.0])


class TestPerSpeedWindows:
    # speeds 0, 1e-9, far below, about and far above sqrt(s), in units
    # of sqrt(s); the orders p 0-2 with one fractional power each
    RATIOS = [0.0, 1e-9, 1e-3, 0.05, 0.9, 1.0, 1.1, 3.0, 14.5, 40.0, 300.0]
    PS = [0, 1, 2, 0, 1, 2]
    QS = [0.0, 1.0, 2.5, -1.5, 3.5, 1.0]

    @pytest.mark.parametrize("factor", [None, lambda r: np.exp(-0.3 * r * r)],
                             ids=["plain", "radial_factor"])
    @pytest.mark.parametrize("s", [0.05, 2.0])
    def test_one_speed_call_is_its_row_of_the_batch(self, s, factor):
        zn = np.array(self.RATIOS) * np.sqrt(s)
        rows = radial_gaussian_moment(zn, s, self.PS, self.QS,
                                      radial_factor=factor)
        for k in range(len(zn)):
            one = radial_gaussian_moment(zn[k], s, self.PS, self.QS,
                                         radial_factor=factor)
            assert one.tobytes() == rows[:, k].tobytes(), self.RATIOS[k]
            for p, q, row in zip(self.PS, self.QS, rows):
                single = radial_gaussian_moment(zn[k], s, p, q,
                                                radial_factor=factor)
                assert single == row[k], (self.RATIOS[k], p, q)

    def test_row_blocks_bound_memory_and_move_no_float(self, monkeypatch):
        zn = np.linspace(0.0, 40.0, 63)

        def factor(r):
            return np.exp(-0.3 * r * r)

        whole = radial_gaussian_moment(zn, 0.45, self.PS, self.QS,
                                       radial_factor=factor)
        shapes = []

        def recording(r):
            shapes.append(r.shape)
            return factor(r)

        # five speeds' nodes per block: the call spans thirteen blocks
        nodes = quadrature._HEAD_NODES + quadrature._TAIL_NODES
        monkeypatch.setattr(quadrature, "_PAIR_BUDGET", 5 * nodes)
        blocked = radial_gaussian_moment(zn, 0.45, self.PS, self.QS,
                                         radial_factor=recording)
        assert shapes == [(5, nodes)] * 12 + [(3, nodes)]
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("s", [0.05, 2.0])
    def test_far_apart_speeds_both_match_the_oracle(self, s):
        # a speed at 300 sqrt(s) no longer spreads the nodes of a slow one
        zn = np.array([0.7, 300.0]) * np.sqrt(s)
        rows = radial_gaussian_moment(zn, s, self.PS, self.QS)
        for row, p, q in zip(rows, self.PS, self.QS):
            for k, z in enumerate(zn):
                slow = radial_gaussian_moment_adaptive(z, s, p, q)
                assert_allclose(row[k], slow, rtol=1e-9,
                                err_msg=f"p={p} q={q} zn={z}")


class TestInputChecks:
    @pytest.mark.parametrize("speed", [-0.5, np.nan, np.inf])
    def test_speed_must_be_nonnegative_and_finite(self, speed):
        with pytest.raises(ValueError, match="speeds must be nonnegative and finite"):
            radial_gaussian_moment(np.array([1.0, speed]), 1.0, 0, 1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf])
    def test_variance_must_be_positive_and_finite(self, s):
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            radial_gaussian_moment(np.array([1.0]), s, 0, 1.0)

    def test_nan_power_rejected(self):
        with pytest.raises(ValueError, match="exceed -3"):
            radial_gaussian_moment(np.array([1.0]), 1.0, 0, np.nan)
