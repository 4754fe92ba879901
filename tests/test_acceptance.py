"""End-to-end acceptance battery.

Thirteen numbered criteria, one per test, each printing a single
PASS/FAIL line with the measured numbers next to the tolerance it was
judged against.  Every test is seeded and deterministic; statistical
verdicts use three-standard-error bands unless a tighter analytic
tolerance applies.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the verdict
lines for passing tests as well.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from boltzgas import cli
from boltzgas.densities import (
    BKWModel,
    BoxMaxwellianModel,
    GaussianProductModel,
    bkw_fourth_moment,
    bkw_relaxation_rate,
)
from boltzgas.diagnostics import (
    CompactBump,
    Constant,
    Energy,
    LinearMomentum,
    Quadratic,
    collision_invariant_residual,
    collision_symmetry_gap,
    energy_flow_values,
    energy_rhs_report,
    exit_statistics,
    gaussian_kl,
    relative_entropy_kde,
    weak_residual,
)
from boltzgas.engine import SimConfig, simulate_ensemble
from boltzgas.geometry import deflection_alpha, gamma, tanaka_rotation
from boltzgas.kernels import HARD_SPHERE, KernelSpec
from boltzgas.picard import contraction_profile
from boltzgas.truncation import alpha_j, energy_defect, project_j

MAXWELL = KernelSpec(gamma=0.0, c=1.0, angular=HARD_SPHERE)
HARD = KernelSpec(gamma=1.0, c=1.0, angular=HARD_SPHERE)
UNIT_BOX = BoxMaxwellianModel(side=1.0, vel_var=1.0)


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_collision_kinematics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    n = 1_000_000
    z = 2.0 * rng.standard_normal((n, 3))
    v = 2.0 * rng.standard_normal((n, 3))
    theta = rng.uniform(1e-6, np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    alpha = deflection_alpha(z, v, theta, phi)
    z_post = z + alpha
    v_post = v - alpha

    mom_err = np.abs((z_post + v_post) - (z + v)).max(axis=1)
    mom_scale = 1.0 + np.abs(z + v).max(axis=1)
    momentum = float((mom_err / mom_scale).max())

    e_pre = (z * z).sum(axis=1) + (v * v).sum(axis=1)
    e_post = (z_post * z_post).sum(axis=1) + (v_post * v_post).sum(axis=1)
    energy = float((np.abs(e_post - e_pre) / (1.0 + e_pre)).max())

    # periodic trapezoid average of the orthogonal frame vector; the
    # integrand is a trigonometric polynomial, so the grid sum is exact
    n_phi = 64
    m = 2000
    w = v[:m] - z[:m]
    grid = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    w_rep = np.repeat(w, n_phi, axis=0)
    frames = gamma(w_rep, np.tile(grid, m)).reshape(m, n_phi, 3)
    gamma_avg = float(np.abs(frames.mean(axis=1)).max())

    size = np.linalg.norm(alpha, axis=1)
    cap = 2.0 * theta * (
        np.linalg.norm(z, axis=1) + np.linalg.norm(v, axis=1)
    )
    size_violations = int((size > cap).sum())

    # azimuthal matching rotation: frames of nearby relative velocities
    # stay within three times the velocity mismatch
    k = 20_000
    z2 = z[:k] + 0.4 * rng.standard_normal((k, 3))
    v2 = v[:k] + 0.4 * rng.standard_normal((k, 3))
    phi0 = tanaka_rotation(z[:k], v[:k], z2, v2)
    w1 = v[:k] - z[:k]
    w2 = v2 - z2
    n_grid = 48
    pgrid = np.arange(n_grid) * (2.0 * np.pi / n_grid)
    g1 = gamma(np.repeat(w1, n_grid, axis=0), np.tile(pgrid, k))
    g2 = gamma(
        np.repeat(w2, n_grid, axis=0),
        np.tile(pgrid, k) + np.repeat(phi0, n_grid),
    )
    gap = np.linalg.norm(g1 - g2, axis=1).reshape(k, n_grid).max(axis=1)
    bound = 3.0 * np.linalg.norm(w1 - w2, axis=1)
    frame_violations = int((gap > bound + 1e-12).sum())

    elapsed = time.perf_counter() - t0
    ok = (
        momentum <= 1e-12
        and energy <= 1e-12
        and gamma_avg <= 1e-10
        and size_violations == 0
        and frame_violations == 0
        and elapsed < 30.0
    )
    detail = (
        f"kinematics at n=1e6: momentum rel {momentum:.2e} <= 1e-12, "
        f"energy rel {energy:.2e} <= 1e-12, frame average {gamma_avg:.2e} "
        f"<= 1e-10, size-bound violations {size_violations}, matched-frame "
        f"violations {frame_violations} (constant 3), {elapsed:.1f}s < 30s"
    )
    assert _verdict("criterion 01", ok, detail), detail


def test_criterion_02_angular_change_of_variables():
    t0 = time.perf_counter()
    gaps = {
        th: collision_symmetry_gap(th).difference for th in (0.7, 1.3, 2.2)
    }
    worst = max(abs(g) for g in gaps.values())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    detail = (
        "pre/post change of variables: worst quadrature gap "
        f"{worst:.2e} <= 1e-8 over theta in {sorted(gaps)}, "
        f"{elapsed:.1f}s < 120s"
    )
    assert _verdict("criterion 02", ok, detail), detail


def test_criterion_03_collision_invariants():
    psis = [
        Constant(),
        LinearMomentum(np.array([1.0, 0.0, 0.0])),
        LinearMomentum(np.array([0.0, 1.0, 0.0])),
        LinearMomentum(np.array([0.0, 0.0, 1.0])),
        Energy(),
    ]
    models = [
        GaussianProductModel(vel_var=1.3, pos_var=0.7),
        BoxMaxwellianModel(side=2.0, vel_var=0.8),
    ]
    kernel = KernelSpec(gamma=1.0, c=0.7, angular=HARD_SPHERE)
    worst = 0.0
    n_pass = 0
    for model in models:
        for psi in psis:
            rep = collision_invariant_residual(model, kernel, psi)
            worst = max(worst, abs(rep.difference))
            n_pass += bool(rep.verdict)
    ok = worst <= 1e-6 and n_pass == 10
    detail = (
        f"conserved observables: worst |residual| {worst:.2e} <= 1e-6 "
        f"across 2 models x 5 observables ({n_pass}/10 PASS)"
    )
    assert _verdict("criterion 03", ok, detail), detail


def test_criterion_04_velocity_truncation():
    rng = np.random.default_rng(404)
    n = 1_000_000
    z = 30.0 * rng.standard_normal((n, 3))
    v = 2.0 * rng.standard_normal((n, 3))
    theta = rng.uniform(1e-6, np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    j = 3.0

    proj = project_j(z, j)
    cap = np.minimum(j, np.linalg.norm(z, axis=1))
    slack = cap * (4.0 * np.finfo(float).eps)
    growth_violations = int(
        (np.linalg.norm(proj, axis=1) > cap + slack).sum()
    )

    a = alpha_j(z, v, theta, phi, j)
    defect = energy_defect(z, v, theta, phi, j)
    lhs = ((z + a) ** 2).sum(axis=1) - (z * z).sum(axis=1)
    rhs = (v * v).sum(axis=1) - ((v - a) ** 2).sum(axis=1) + defect
    scale = 1.0 + (z * z).sum(axis=1) + (v * v).sum(axis=1)
    balance = float((np.abs(lhs - rhs) / scale).max())

    inside = np.linalg.norm(z, axis=1) <= j
    untouched = bool(
        np.array_equal(
            a[inside],
            deflection_alpha(z[inside], v[inside], theta[inside], phi[inside]),
        )
    )
    defect_inside = float(np.abs(defect[inside]).max()) if inside.any() else 0.0

    ok = (
        growth_violations == 0
        and balance <= 1e-12
        and untouched
        and defect_inside == 0.0
    )
    detail = (
        f"truncation at n=1e6, j={j}: growth-cap violations "
        f"{growth_violations}, energy-balance defect identity "
        f"{balance:.2e} <= 1e-12, transfer bitwise-identical inside the "
        f"ball {untouched}, inside defect {defect_inside:.1e}"
    )
    assert _verdict("criterion 04", ok, detail), detail


def test_criterion_05_thinning_law():
    # a flat kernel in the unit box accepts every candidate, so the
    # jump count per run is Poisson with quadrature mean
    # 2 pi * (angular mass) * c * T / side^3 = 2 pi
    n_runs = 10_000
    cfg = SimConfig(horizon=1.0, level=4.0)
    # path i runs on stream(104729, i), as a simulate call on it would
    trajs, logs = simulate_ensemble(UNIT_BOX, MAXWELL, cfg, 104729, n_runs)
    counts = np.array([traj.n_jumps for traj in trajs], dtype=np.int64)
    skipped = sum(log.n_skipped for log in logs)
    lam = 2.0 * math.pi

    observed = np.bincount(counts)
    expected = n_runs * stats.poisson.pmf(np.arange(observed.size), lam)
    expected[-1] += n_runs * stats.poisson.sf(observed.size - 1, lam)
    # pool sparse tail cells so every expected count is at least five
    obs_cells, exp_cells = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_cells.append(o_acc)
            exp_cells.append(e_acc)
            o_acc = e_acc = 0.0
    obs_cells[-1] += o_acc
    exp_cells[-1] += e_acc
    chi2 = float(
        (((np.array(obs_cells) - np.array(exp_cells)) ** 2)
         / np.array(exp_cells)).sum()
    )
    dof = len(obs_cells) - 1
    p_value = float(stats.chi2.sf(chi2, dof))

    ok = p_value > 0.001 and skipped == 0
    detail = (
        f"thinning law over {n_runs} runs: chi-square {chi2:.1f} on "
        f"{dof} cells against Poisson({lam:.4f}), p = {p_value:.3f} > "
        f"0.001, rejected candidates {skipped}"
    )
    assert _verdict("criterion 05", ok, detail), detail


def test_criterion_06_second_moment_stability():
    # the uniform moment bound allows the localized dynamics to differ
    # from the full dynamics while the smallest ball binds, so the bath
    # is kept cold enough that level 2 engages only on rare excursions
    # and any residual truncation effect sits below Monte Carlo error
    bath = BoxMaxwellianModel(side=1.0, vel_var=0.3)
    levels = (2.0, 4.0, 8.0, 16.0)
    n_paths = 1500
    grid = np.linspace(0.0, 0.5, 11)
    sups, los, his = [], [], []
    trajs_by_level = {}
    for j in levels:
        cfg = SimConfig(horizon=0.5, level=j, escalate=False)
        trajs, _ = simulate_ensemble(bath, HARD, cfg, 555, n_paths)
        trajs_by_level[j] = trajs
        energies = np.array(
            [[(tr.velocity(t) ** 2).sum() for t in grid] for tr in trajs]
        )
        means = energies.mean(axis=0)
        k = int(np.argmax(means))
        se = energies[:, k].std(ddof=1) / math.sqrt(n_paths)
        sups.append(float(means[k]))
        los.append(float(means[k] - 1.96 * se))
        his.append(float(means[k] + 1.96 * se))
    overlap = max(los) <= min(his)

    fine = np.linspace(0.0, 0.5, 101)
    trajs = trajs_by_level[4.0]
    energies = np.array(
        [[(tr.velocity(t) ** 2).sum() for t in fine] for tr in trajs]
    )
    means = energies.mean(axis=0)
    k = int(np.argmax(means))
    se = energies[:, k].std(ddof=1) / math.sqrt(n_paths)
    sup_fine = float(means[k])
    refinement = abs(sup_fine - sups[1])
    ok = overlap and refinement <= 3.0 * se and np.isfinite(sup_fine)
    detail = (
        "sup of mean squared speed across levels "
        f"{dict(zip((int(j) for j in levels), (round(s, 4) for s in sups)))}: "
        f"95% bands overlap {overlap}, tenfold grid refinement moves the "
        f"sup by {refinement:.4f} <= {3.0 * se:.4f}"
    )
    assert _verdict("criterion 06", ok, detail), detail


def test_criterion_07_exit_probabilities():
    cfg = SimConfig(horizon=0.5, level=2.0, escalate=True)
    trajs, _ = simulate_ensemble(UNIT_BOX, HARD, cfg, 770, 4000)
    sups = np.array([tr.max_speed() for tr in trajs])
    rep = exit_statistics(sups, thresholds=(2.0, 4.0, 8.0, 16.0))
    ok = rep.monotone and rep.bounded and rep.probabilities[0] > 0.0
    pairs = ", ".join(
        f"P(sup>{int(j)})={p:.4f}<= {b:.4f}"
        for j, p, b in zip(
            rep.thresholds, rep.probabilities, rep.markov_bounds
        )
    )
    detail = (
        f"exit probabilities over 4000 paths: monotone {rep.monotone}, "
        f"within the mean-sup bound {rep.bounded} ({pairs})"
    )
    assert _verdict("criterion 07", ok, detail), detail


def test_criterion_08_weak_form_residuals():
    mixed = np.array(
        [[0.7, 0.3, 0.0], [0.3, -0.2, 0.5], [0.0, 0.5, 1.1]]
    )
    cfg = SimConfig(horizon=0.5, level=4.0, escalate=False)
    trajs, _ = simulate_ensemble(UNIT_BOX, HARD, cfg, 881, 10_000)
    psis = [
        LinearMomentum(np.array([1.0, 0.0, 0.0])),
        LinearMomentum(np.array([0.0, 1.0, 0.0])),
        Energy(),
        Quadratic(mixed),
    ]
    results = []
    worst_z = 0.0
    for h in (0.125, 0.25, 0.375, 0.5):
        for psi in psis:
            rep = weak_residual(trajs, UNIT_BOX, HARD, psi, horizon=h)
            results.append(bool(rep.verdict))
            if rep.stderr > 0.0:
                worst_z = max(worst_z, abs(rep.difference) / rep.stderr)

    drift = GaussianProductModel(vel_var=1.0, pos_var=1.0)
    cfg_free = SimConfig(horizon=0.5, level=4.0, collisions=False)
    free, _ = simulate_ensemble(drift, HARD, cfg_free, 882, 200)
    exact_psis = [
        Constant(),
        CompactBump(np.zeros(3), 2.0),
        Energy(),
        Quadratic(mixed),
    ]
    exact_zero = []
    for psi in exact_psis:
        rep = weak_residual(free, drift, HARD, psi, collisions=False)
        results.append(bool(rep.verdict))
        exact_zero.append(rep.difference == 0.0)
    n_pass = sum(results)
    ok = n_pass >= 19 and all(exact_zero)
    detail = (
        f"weak-form residuals: {n_pass}/20 pairs PASS at three standard "
        f"errors (worst |z| = {worst_z:.2f}), free-transport residuals "
        f"exactly zero {all(exact_zero)}"
    )
    assert _verdict("criterion 08", ok, detail), detail


def test_criterion_09_energy_flow_identity():
    n_paths = 5000
    cfg = SimConfig(horizon=0.6, level=4.0, escalate=False)
    trajs, _ = simulate_ensemble(
        UNIT_BOX, HARD, cfg, 990, n_paths, z0=np.zeros(3)
    )
    h = 0.05
    n_fail = 0
    rows = []
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        vel_lo = np.array([tr.velocity(t - h) for tr in trajs])
        vel_mid = np.array([tr.velocity(t) for tr in trajs])
        vel_hi = np.array([tr.velocity(t + h) for tr in trajs])
        slopes = (
            (vel_hi ** 2).sum(axis=1) - (vel_lo ** 2).sum(axis=1)
        ) / (2.0 * h)
        fd = float(slopes.mean())
        fd_se = float(slopes.std(ddof=1) / math.sqrt(n_paths))
        flows = energy_flow_values(UNIT_BOX, HARD, vel_mid)
        quad = float(flows.mean())
        quad_se = float(flows.std(ddof=1) / math.sqrt(n_paths))
        band = 3.0 * math.hypot(fd_se, quad_se)
        if abs(fd - quad) > band:
            n_fail += 1
        rows.append(f"t={t}: |{fd:.3f}-{quad:.3f}|<={band:.3f}")
    cold = energy_rhs_report(UNIT_BOX, HARD, 0.3 * vel_mid[:2000])
    hot = energy_rhs_report(UNIT_BOX, HARD, 3.0 * vel_mid[:2000])
    signs = cold.lhs > 0.0 and hot.lhs < 0.0
    ok = n_fail == 0 and signs
    detail = (
        "mean-energy derivative, finite difference vs quadrature at "
        f"5 times ({n_fail} outside 3 combined SE; {'; '.join(rows)}); "
        f"cold ensemble heats ({cold.lhs:.2f} > 0) and hot cools "
        f"({hot.lhs:.2f} < 0): {signs}"
    )
    assert _verdict("criterion 09", ok, detail), detail


def test_criterion_10_relative_entropy():
    n_paths = 3000
    cfg = SimConfig(horizon=0.4, level=4.0, escalate=False)
    trajs, _ = simulate_ensemble(UNIT_BOX, HARD, cfg, 1010, n_paths)
    stationary_ok = True
    worst = 0.0
    for t in (0.0, 0.1, 0.2, 0.3, 0.4):
        vel = np.array([tr.velocity(t) for tr in trajs])
        rep = relative_entropy_kde(vel, reference_variance=1.0)
        stationary_ok &= rep.consistent_with_zero
        worst = max(worst, abs(rep.value))
    budget = rep.bias_budget

    rng = np.random.default_rng(1011)
    sample = math.sqrt(2.0) * rng.standard_normal((n_paths, 3))
    oracle = relative_entropy_kde(sample, reference_variance=1.0)
    target = gaussian_kl(2.0, 1.0)
    oracle_gap = abs(oracle.value - target)
    oracle_ok = oracle_gap <= oracle.bias_budget + 3.0 * oracle.stderr

    ok = stationary_ok and oracle_ok
    detail = (
        "relative entropy of a stationary run: worst |estimate| "
        f"{worst:.4f} within budget {budget:.4f} (+3 SE) at 5 times: "
        f"{stationary_ok}; doubled-variance oracle gap {oracle_gap:.4f} "
        f"<= {oracle.bias_budget + 3.0 * oracle.stderr:.4f} against "
        f"closed form {target:.4f}: {oracle_ok}"
    )
    assert _verdict("criterion 10", ok, detail), detail


def test_criterion_11_picard_contraction():
    report = contraction_profile(
        UNIT_BOX, HARD, level=4.0, horizon=0.1,
        n_iterates=6, n_realizations=1000, seed=313,
    )
    means = report.mean()
    ok = report.nonincreasing_from(start=2)
    detail = (
        "successive-pass distances over 1000 frozen noises: means "
        f"{np.array2string(means, precision=4)} nonincreasing from the "
        f"second pass at 95% one-sided confidence: {ok}"
    )
    assert _verdict("criterion 11", ok, detail), detail


def test_criterion_12_relaxing_bath_moments():
    c0 = 0.4
    rate = bkw_relaxation_rate(MAXWELL)
    model = BKWModel(side=1.0, vel_var=1.0, c0=c0, rate=rate)
    times = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    _, m4_closed = bkw_fourth_moment(times, MAXWELL, vel_var=1.0, c0=c0)

    # the bath's own fourth moment must ride the closed family, which
    # pins the self-consistent relaxation rate used above
    k = 1.0 - c0 * np.exp(-rate * times)
    family = 15.0 * k * (2.0 - k)
    self_gap = float(np.abs(m4_closed - family).max())

    n_paths = 8000
    cfg = SimConfig(horizon=1.0, level=8.0, escalate=True)
    trajs, _ = simulate_ensemble(model, MAXWELL, cfg, 1212, n_paths)
    n_fail = 0
    rows = []
    for t, target in zip(times, m4_closed):
        speeds_sq = np.array(
            [(tr.velocity(t) ** 2).sum() for tr in trajs]
        )
        m4 = speeds_sq ** 2
        gap = abs(float(m4.mean()) - target)
        band = 3.0 * float(m4.std(ddof=1) / math.sqrt(n_paths))
        if gap > band:
            n_fail += 1
        rows.append(f"t={t}: |{m4.mean():.3f}-{target:.3f}|<={band:.3f}")
    ok = n_fail == 0 and self_gap <= 1e-8
    detail = (
        "fourth moment in a relaxing bath vs closed-form moment closure "
        f"({n_fail} of 5 times outside 3 SE; {'; '.join(rows)}); "
        f"closed-family self-consistency {self_gap:.1e} <= 1e-8"
    )
    assert _verdict("criterion 12", ok, detail), detail


def test_criterion_13_bitwise_reproducibility(tmp_path):
    config = {
        "mode": "Simulate",
        "seed": 97,
        "kernel": {"gamma": 1.0, "c": 1.0, "angular": "hard_sphere"},
        "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
        "sim": {"horizon": 0.4, "level": 4.0},
        "output_times": [0.1, 0.2, 0.3],
        "simulate": {"n_paths": 3, "log_events": True},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    data_names = [n for n in names if n != "manifest.json"]
    identical = all(
        filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False)
        for n in data_names
    )
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    manifest_keys = {k for k in m0 if m0[k] != m1.get(k)}
    ok = identical and manifest_keys <= {"created_utc"}
    detail = (
        f"identical config and seed: {len(data_names)} data files "
        f"(event logs, trajectories, reports) byte-identical: {identical}; "
        f"manifest differs only in {sorted(manifest_keys) or 'nothing'}"
    )
    assert _verdict("criterion 13", ok, detail), detail
