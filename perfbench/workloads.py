"""The benchmark's three workloads and their layer measurements.

Each workload builds its inputs from the run seed, runs whole rounds of
the same operations through the library's public entry points, keeps
what its correctness checks need, and turns the stage times recorded by
a :class:`tracing.Tracer` into metrics.  Round ``r`` of a run with seed
``s`` draws its randomness from streams keyed by
``round_seed(s, r, part)``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import boltzgas as bg
from boltzgas import runio
from boltzgas.particles import SYMMETRIC_PAIR
from boltzgas.quadrature import radial_gaussian_moment

import checks
from tracing import DENSITY_METHODS, SAMPLER_METHODS, Tracer

SIDE = 1.0
VEL_VAR = 1.0
LEVEL = 4.0
HARD_SPHERE = bg.KernelSpec(gamma=1.0, c=1.0, angular="hard_sphere")
PICARD_STAGES = ("picard.frozen_noise", "picard.picard_pass", "picard.supremum_distance")
FIXED_POINT_TOL = 1e-9
REPLAY_ROWS = 256
BATCH_ROWS = 4096


def round_seed(seed, r, part):
    """Seed of stream family ``part`` in round ``r`` of a run."""
    return (int(seed) * 4096 + r) * 4 + part


def _ms(seconds):
    return 1e3 * seconds


def _us(seconds):
    return 1e6 * seconds


# ---------------------------------------------------------------- shared steps


def run_paths(tracer, model, kernel, cfg, seed, n_paths, log_dir):
    """Simulate logged paths, write each event log and read it back.

    Returns the trajectories, the in-memory logs, the accepted count of
    every re-read log and the bytes written.
    """
    with tracer.span("engine.simulate_ensemble"):
        trajs, logs = bg.simulate_ensemble(
            model, kernel, cfg, seed=seed, n_paths=n_paths, log_events=True
        )
    accepted = []
    n_bytes = 0
    for i, log in enumerate(logs):
        path = log_dir / f"events_{i:04d}.jsonl"
        with tracer.span("runio.write_event_log"):
            runio.write_event_log(path, log)
        n_bytes += path.stat().st_size
        with tracer.span("runio.read_event_log"):
            records = runio.read_event_log(path)
        accepted.append(sum(1 for rec in records if rec["accepted"]))
    return trajs, logs, accepted, n_bytes


def fixed_point(tracer, model, kernel, level, horizon, rng):
    """Draw frozen noise and run Picard passes to the roundoff fixed point.

    The fixed point is reached when the distance between successive
    iterates is at most ``FIXED_POINT_TOL`` and their acceptance
    decisions agree.  Returns the noise, the last iterate, the passes
    run, the cap and whether the fixed point was reached within it.
    """
    with tracer.span("picard.frozen_noise"):
        noise = bg.frozen_noise(model, kernel, level, horizon, rng)
    cap = 2 * noise.n_atoms + 2
    prev = bg.initial_iterate(noise)
    for k in range(1, cap + 1):
        with tracer.span("picard.picard_pass"):
            cur = bg.picard_pass(model, kernel, noise, prev)
        with tracer.span("picard.supremum_distance"):
            dist = bg.supremum_distance(cur, prev)
        if dist <= FIXED_POINT_TOL and np.array_equal(cur.accepted, prev.accepted):
            return noise, cur, k, cap, True
        prev = cur
    return noise, cur, cap, cap, False


def left_limits(traj, times):
    """Velocity just before, and position at, each of ``times``."""
    k = np.searchsorted(traj.times, times, side="left") - 1
    z = traj.velocities[k]
    x = traj.positions[k] + (times - traj.times[k])[:, None] * z
    return x, z


def candidate_rows(trajs, logs):
    """Logged candidates as arrays, with the left-limit state of each."""
    xs, zs, vs, th, ph, lv, rr, bd, acc, ts = ([] for _ in range(10))
    for traj, log in zip(trajs, logs):
        if not log.records:
            continue
        t = np.array([rec.time for rec in log.records])
        x, z = left_limits(traj, t)
        xs.append(x)
        zs.append(z)
        ts.append(t)
        vs.append(np.array([rec.velocity for rec in log.records]))
        th.append([rec.theta for rec in log.records])
        ph.append([rec.phi for rec in log.records])
        lv.append([rec.level for rec in log.records])
        rr.append([rec.r for rec in log.records])
        bd.append([rec.bound for rec in log.records])
        acc.append([rec.accepted for rec in log.records])
    cat = np.concatenate
    return {
        "t": cat(ts), "x": cat(xs), "z": cat(zs), "v": cat(vs),
        "theta": cat(th), "phi": cat(ph), "level": cat(lv),
        "r": cat(rr), "bound": cat(bd), "accepted": cat(acc),
    }


def picard_trajectory(noise, path):
    """A Picard iterate as an engine :class:`~boltzgas.Trajectory`."""
    return bg.Trajectory(
        path.seg_times, path.seg_positions, path.seg_velocities,
        np.full(len(path.seg_times), noise.level), noise.horizon,
    )


def picard_event_log(noise, path):
    """The frozen atoms with the fixed point's decisions and azimuths."""
    log = bg.EventLog()
    for a in range(noise.n_atoms):
        log.records.append(bg.CandidateRecord(
            time=float(noise.times[a]), velocity=noise.velocities[a],
            theta=float(noise.thetas[a]), phi=float(path.psi[a]),
            r=float(noise.thresholds[a]), bound=float(noise.bounds[a]),
            accepted=bool(path.accepted[a]), level=noise.level,
        ))
    return log


def kicked(before, after):
    return int(np.any(before.velocities != after.velocities, axis=1).sum())


# -------------------------------------------------------- end-to-end rates


def run_rate(rounds, amount, *stages):
    """Untraced rounds' total ``amount`` per second spent in ``stages``.

    ``amount`` is a number per round or the key of a per-round count.
    A ratio of totals over the whole run, not a median or best round:
    this machine's speed drifts by tens of percent over tens of seconds,
    and a statistic of single rounds adds the noise of short windows to
    that drift.
    """
    untraced = [rec for rec in rounds if not rec["traced"]]
    done = sum(rec[amount] if isinstance(amount, str) else amount for rec in untraced)
    return done / sum(rec["stages"][s] for rec in untraced for s in stages)


def rates(rounds, stages, horizon):
    """Paths, realizations and particle time per second over the run."""
    stages = (stages,) if isinstance(stages, str) else stages
    paths_per_s = run_rate(rounds, "paths", *stages)
    untraced = [rec for rec in rounds if not rec["traced"]]
    return {
        "paths_per_s": paths_per_s,
        "realizations_per_s": sum(rec["paths"] for rec in untraced)
        / sum(rec["wall"] for rec in untraced),
        "particle_time_per_s": horizon * paths_per_s,
    }


# ------------------------------------------------------------ layer metrics


def engine_metrics(tracer, trajs, logs, cfg):
    n = len(trajs)
    sim = tracer.total("engine.simulate_ensemble")
    cand = sum(log.n_candidates for log in logs)
    acc = sum(log.n_accepted for log in logs)
    esc = [(t.levels[-1] - cfg.level) / cfg.level_step for t in trajs]
    return {
        "engine.simulate_ms": _ms(sim / n),
        "engine.candidate_us": _us(sim / max(cand, 1)),
        "engine.candidates_per_path": cand / n,
        "engine.skips_per_path": sum(log.n_skipped for log in logs) / n,
        "engine.jumps_per_path": acc / n,
        "engine.acceptance_ratio": acc / max(cand, 1),
        "engine.escalations_per_path": float(np.mean(esc)),
    }


def density_metrics(tracer, n_paths, generation_s):
    """Density calls seen through the traced model class.

    ``share_of_simulate`` counts only outermost density spans, since a
    sampler may call another public sampler of the same model.
    """
    names = ["densities." + m for m in DENSITY_METHODS]
    outer = 0.0
    for name, start, end, parent, _ in tracer.spans:
        if name in names and (
            parent is None or not tracer.spans[parent][0].startswith("densities.")
        ):
            outer += end - start
    samplers = ["densities." + m for m in SAMPLER_METHODS]
    n_samples = sum(tracer.count(s) for s in samplers)
    ssb = "densities.speed_sq_bound"
    return {
        "densities.speed_sq_bound_calls_per_path": tracer.count(ssb) / n_paths,
        "densities.speed_sq_bound_ms": _ms(tracer.mean(ssb)),
        "densities.conditional_us": _us(tracer.mean("densities.conditional")),
        "densities.sampler_us": _us(
            sum(tracer.total(s) for s in samplers) / max(n_samples, 1)
        ),
        "densities.share_of_simulate": outer / generation_s,
    }


def picard_metrics(tracer, reals):
    atoms = [r["atoms"] for r in reals]
    passes = [r["passes"] for r in reals]
    atom_passes = sum(a * p for a, p in zip(atoms, passes))
    return {
        "picard.frozen_noise_ms": _ms(tracer.mean("picard.frozen_noise")),
        "picard.atoms_per_realization": float(np.mean(atoms)),
        "picard.pass_ms": _ms(tracer.mean("picard.picard_pass")),
        "picard.atom_pass_us": _us(
            tracer.total("picard.picard_pass") / max(atom_passes, 1)
        ),
        "picard.passes_to_fixed_point": float(np.mean(passes)),
        "picard.passes_to_fixed_point_max": float(max(passes)),
        "picard.distance_ms": _ms(tracer.mean("picard.supremum_distance")),
    }


def particle_metrics(tracer, kicks, n_rounds):
    return {
        "particles.step_ms": _ms(tracer.mean("particles.step_ensemble")),
        "particles.steps": tracer.count("particles.step_ensemble") / n_rounds,
        "particles.kicked_per_step": float(np.mean(kicks)),
    }


def event_log_metrics(tracer, n_paths, n_bytes):
    return {
        "runio.write_ms_per_path": _ms(
            tracer.total("runio.write_event_log") / n_paths
        ),
        "runio.bytes_per_path": n_bytes / n_paths,
    }


def snapshot_metrics(tracer):
    rt = tracer.total("runio.write_snapshot_csv") + tracer.total(
        "runio.read_csv_columns"
    )
    return {
        "runio.snapshot_roundtrip_ms": _ms(
            rt / tracer.count("runio.write_snapshot_csv")
        ),
        "densities.empirical_build_ms": _ms(
            tracer.mean("densities.empirical_build")
        ),
    }


def diagnostics_metrics(tracer, segments):
    return {
        "diagnostics.weak_residual_s": tracer.mean("diagnostics.weak_residual"),
        "diagnostics.segments": float(np.mean(segments)),
    }


def _per_call(fn, n):
    start = time.perf_counter()
    for i in range(n):
        fn(i)
    return (time.perf_counter() - start) / n


def replay_metrics(rows, kernel, speed_var, seed):
    """Time the kinematics the engine or Picard ran on the logged rows.

    Each row is one candidate the workload drew: its left-limit test
    velocity ``z``, partner ``v``, angles and level.  Scalar calls are
    replayed one row at a time, the batched transfer on all rows at once.
    """
    z, v, th, ph, lv = (rows[k] for k in ("z", "v", "theta", "phi", "level"))
    z2 = z + bg.deflection_alpha(z, v, th, ph)
    n = min(len(z), REPLAY_ROWS)
    u = np.random.default_rng(seed).random(n)
    nb = min(len(z), BATCH_ROWS)
    batch = []
    for _ in range(5):
        start = time.perf_counter()
        bg.deflection_alpha(z[:nb], v[:nb], th[:nb], ph[:nb])
        batch.append((time.perf_counter() - start) / nb)
    speeds = np.linalg.norm(z[:nb], axis=1)
    start = time.perf_counter()
    radial_gaussian_moment(speeds, speed_var, 1, kernel.gamma + 1.0)
    radial = (time.perf_counter() - start) / nb
    return {
        "geometry.deflection_alpha_us": _us(_per_call(
            lambda i: bg.deflection_alpha(z[i], v[i], th[i], ph[i]), n)),
        "geometry.deflection_alpha_ns_per_row": 1e9 * statistics.median(batch),
        "geometry.tanaka_rotation_us": _us(_per_call(
            lambda i: bg.tanaka_rotation(z[i], v[i], z2[i], v[i]), n)),
        "truncation.alpha_j_us": _us(_per_call(
            lambda i: bg.alpha_j(z[i], v[i], th[i], ph[i], lv[i]), n)),
        "kernels.sample_theta_us": _us(_per_call(
            lambda i: bg.sample_theta(kernel, u[i]), n)),
        "quadrature.radial_moment_us_per_speed": _us(radial),
    }


# ------------------------------------------------------------------ probes
#
# A traced run reports every per-layer metric on every workload.  Where a
# workload's rounds do not call a layer, a probe calls it once on this
# workload's own model, kernel and seed, at a small fixed size.


def probe_engine(model, kernel, cfg, seed, n_paths):
    tracer = Tracer(True, "probe-engine")
    with tracer.span("engine.simulate_ensemble"):
        trajs, logs = bg.simulate_ensemble(model, kernel, cfg, seed=seed, n_paths=n_paths)
    return tracer, engine_metrics(tracer, trajs, logs, cfg)


def probe_picard(model, kernel, level, horizon, seed, n_real):
    tracer = Tracer(True, "probe-picard")
    reals = []
    for i in range(n_real):
        noise, _, passes, _, _ = fixed_point(
            tracer, model, kernel, level, horizon, bg.stream(seed, i)
        )
        reals.append({"atoms": noise.n_atoms, "passes": passes})
    return tracer, picard_metrics(tracer, reals)


def probe_particles(kernel, n, dt, seed):
    tracer = Tracer(True, "probe-particles")
    ens = bg.maxwellian_ensemble(
        n, bg.stream(seed, 0), side=SIDE, vel_var=VEL_VAR, mode=SYMMETRIC_PAIR
    )
    with tracer.span("particles.step_ensemble"):
        new = bg.step_ensemble(ens, kernel, dt, bg.stream(seed, 1))
    return tracer, particle_metrics(tracer, [kicked(ens, new)], 1)


def probe_snapshot(model_cls, positions, velocities, out_dir):
    """Write the final states as a snapshot, read it back, build its density."""
    tracer = Tracer(True, "probe-snapshot")
    _, h_v = bg.default_bandwidths(len(positions), side=SIDE, vel_var=VEL_VAR)
    path = out_dir / "probe_snapshot.csv"
    with tracer.span("runio.write_snapshot_csv"):
        runio.write_snapshot_csv(path, positions, velocities)
    with tracer.span("runio.read_csv_columns"):
        runio.read_csv_columns(path)
    with tracer.span("densities.empirical_build"):
        model_cls.from_csv(path, SIDE / 10.0, h_v, side=SIDE)
    return tracer, snapshot_metrics(tracer)


def probe_weak_residual(trajs, kernel):
    """Weak residual of ``Energy`` against the stationary box Maxwellian."""
    tracer = Tracer(True, "probe-diagnostics")
    box = bg.BoxMaxwellianModel(side=SIDE, vel_var=VEL_VAR)
    with tracer.span("diagnostics.weak_residual"):
        bg.weak_residual(trajs, box, kernel, bg.Energy())
    segments = [sum(t.n_jumps + 1 for t in trajs)]
    return tracer, diagnostics_metrics(tracer, segments)


# --------------------------------------------------------------- workloads


class Workload:
    """What the harness calls on every workload; subclasses fill in the rounds."""

    name = ""
    model_class = bg.BoxMaxwellianModel
    # Kind of speed.reference_work() by which the rounds' times are
    # scaled to nominal machine speed.
    reference = "mixed"

    def __init__(self, seed, out_dir, size=None):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.size = dict(self.SIZE, **(size or {}))
        self.rounds = []
        self.probe_tracers = []

    def operations(self):
        """Operations attempted by the rounds: paths, realizations, steps."""
        return sum(rec["ops"] for rec in self.rounds)

    def traced_rounds(self):
        return [rec for rec in self.rounds if rec["traced"]]

    def probe(self, result):
        tracer, metrics = result
        self.probe_tracers.append(tracer)
        return metrics


class TaggedGrazing(Workload):
    """gamma = 1, power-law angular kernel, box Maxwellian, escalating level."""

    name = "tagged-grazing"
    SIZE = {"paths": 16, "horizon": 0.1, "epsilon": 1e-3, "nu": 0.5,
            "probe_particles": 160, "probe_picard_horizon": 0.01}

    def setup(self):
        s = self.size
        self.kernel = bg.KernelSpec(
            gamma=1.0, c=1.0, angular="power_law", nu=s["nu"], epsilon=s["epsilon"]
        )
        self.cfg = bg.SimConfig(horizon=s["horizon"], level=LEVEL, level_step=LEVEL)
        self.psis = [
            bg.LinearMomentum([1.0, 0.0, 0.0]),
            bg.Energy(),
            bg.Quadratic(
                [[1.0, 0.5, 0.0], [0.5, 0.0, 0.3], [0.0, 0.3, -0.5]],
                vector=[0.2, -0.1, 0.4],
            ),
        ]
        model = self.model_class(side=SIDE, vel_var=VEL_VAR)
        warm = Tracer(False)
        cfg = bg.SimConfig(horizon=0.1 * s["horizon"], level=LEVEL, level_step=LEVEL)
        trajs, _, _, _ = run_paths(
            warm, model, self.kernel, cfg, round_seed(self.seed, 0, 3), 2, self.out_dir
        )
        for psi in self.psis:
            bg.weak_residual(trajs, model, self.kernel, psi)

    def round(self, r, tracer, model_cls, traced):
        s = self.size
        model = model_cls(side=SIDE, vel_var=VEL_VAR)
        trajs, logs, accepted, n_bytes = run_paths(
            tracer, model, self.kernel, self.cfg,
            round_seed(self.seed, r, 0), s["paths"], self.out_dir,
        )
        reports = []
        for psi in self.psis:
            with tracer.span("diagnostics.weak_residual"):
                reports.append(bg.weak_residual(trajs, model, self.kernel, psi))
        rec = {
            "traced": traced, "ops": s["paths"], "paths": s["paths"],
            "jumps": [t.n_jumps for t in trajs],
            "z2": [float(t.velocities[-1] @ t.velocities[-1]) for t in trajs],
            "accepted": accepted, "reports": reports, "bytes": n_bytes,
            "segments": sum(t.n_jumps + 1 for t in trajs),
        }
        if traced:
            rec.update(trajs=trajs, logs=logs)
        self.rounds.append(rec)

    def references(self):
        s = self.size
        q = checks.power_law_mass(s["epsilon"], s["nu"])
        return {
            "jumps": checks.mean_jumps(q, 1.0, s["horizon"], VEL_VAR, SIDE),
            "z2": 3.0 * VEL_VAR,
            "residual": 0.0,
            "log_offset": 0,
        }

    def checks(self, refs):
        jumps = [j for rec in self.rounds for j in rec["jumps"]]
        z2 = [x for rec in self.rounds for x in rec["z2"]]
        out = [
            ("jumps", checks.mean_band("grazing mean jumps", jumps, refs["jumps"])),
            ("z2", checks.mean_band("grazing mean |Z_T|^2", z2, refs["z2"])),
        ]
        for k, psi in enumerate(self.psis):
            out.append(("residual", checks.pooled_residual(
                f"weak residual {psi.kind}",
                [rec["reports"][k] for rec in self.rounds], refs["residual"],
            )))
        for rec in self.rounds:
            out.append(("log_offset", checks.equal(
                "event log accepted == jumps", rec["accepted"],
                [j + refs["log_offset"] for j in rec["jumps"]],
            )))
        return out

    def end_to_end(self):
        return rates(self.rounds, "engine.simulate_ensemble", self.size["horizon"])

    def layers(self, tracer):
        s = self.size
        recs = self.traced_rounds()
        trajs = [t for rec in recs for t in rec["trajs"]]
        logs = [log for rec in recs for log in rec["logs"]]
        rows = candidate_rows(trajs, logs)
        sim = tracer.total("engine.simulate_ensemble")
        out = engine_metrics(tracer, trajs, logs, self.cfg)
        out.update(density_metrics(tracer, len(trajs), sim))
        out.update(event_log_metrics(tracer, len(trajs), sum(r["bytes"] for r in recs)))
        out.update(diagnostics_metrics(tracer, [r["segments"] for r in recs]))
        out.update(replay_metrics(rows, self.kernel, VEL_VAR, self.seed))
        box = bg.BoxMaxwellianModel(side=SIDE, vel_var=VEL_VAR)
        pseed = round_seed(self.seed, 0, 3)
        out.update(self.probe(probe_picard(
            box, self.kernel, LEVEL, s["probe_picard_horizon"], pseed, 1)))
        out.update(self.probe(probe_particles(
            self.kernel, s["probe_particles"], 0.1 * s["horizon"], pseed)))
        last = recs[-1]["trajs"]
        out.update(self.probe(probe_snapshot(
            bg.MollifiedEmpiricalModel,
            np.array([t.position(t.horizon) for t in last]),
            np.array([t.velocity(t.horizon) for t in last]),
            self.out_dir,
        )))
        return out


class PicardFixedPoint(Workload):
    """Hard-sphere kernel, fixed level, passes to the roundoff fixed point."""

    name = "picard-fixed-point"
    SIZE = {"realizations": 12, "horizon": 0.5, "probe_particles": 160}

    def setup(self):
        s = self.size
        self.kernel = HARD_SPHERE
        model = self.model_class(side=SIDE, vel_var=VEL_VAR)
        warm = Tracer(False)
        fixed_point(warm, model, self.kernel, LEVEL, 0.1 * s["horizon"],
                    bg.stream(round_seed(self.seed, 0, 3), 0))

    def round(self, r, tracer, model_cls, traced):
        s = self.size
        model = model_cls(side=SIDE, vel_var=VEL_VAR)
        rec = {"traced": traced, "ops": s["realizations"],
               "paths": s["realizations"], "reals": []}
        for i in range(s["realizations"]):
            noise, path, passes, cap, ok = fixed_point(
                tracer, model, self.kernel, LEVEL, s["horizon"],
                bg.stream(round_seed(self.seed, r, 0), i),
            )
            z = path.velocity(s["horizon"])
            real = {"atoms": noise.n_atoms, "passes": passes, "cap": cap,
                    "converged": ok, "jumps": path.n_jumps, "z2": float(z @ z)}
            if traced:
                real.update(noise=noise, path=path)
            rec["reals"].append(real)
        self.rounds.append(rec)

    def _reals(self, traced_only=False):
        recs = self.traced_rounds() if traced_only else self.rounds
        return [real for rec in recs for real in rec["reals"]]

    def references(self):
        return {
            "cap_offset": 0,
            "jumps": checks.mean_jumps(1.0, 1.0, self.size["horizon"], VEL_VAR, SIDE),
            "z2": 3.0 * VEL_VAR,
        }

    def checks(self, refs):
        reals = self._reals()
        return [
            ("cap_offset", checks.fixed_points(
                "fixed point within 2 n_atoms + 2 passes",
                [x["passes"] for x in reals],
                [x["cap"] + refs["cap_offset"] for x in reals],
                [x["converged"] for x in reals],
            )),
            ("jumps", checks.mean_band(
                "fixed-point mean jumps", [x["jumps"] for x in reals], refs["jumps"])),
            ("z2", checks.mean_band(
                "fixed-point mean |Z_T|^2", [x["z2"] for x in reals], refs["z2"])),
        ]

    def end_to_end(self):
        return rates(self.rounds, PICARD_STAGES, self.size["horizon"])

    def layers(self, tracer):
        s = self.size
        reals = self._reals(traced_only=True)
        gen = sum(tracer.total(k) for k in PICARD_STAGES)
        out = picard_metrics(tracer, reals)
        out.update(density_metrics(tracer, len(reals), gen))
        logs = [picard_event_log(x["noise"], x["path"]) for x in reals]
        trajs = [picard_trajectory(x["noise"], x["path"]) for x in reals]
        out.update(replay_metrics(
            candidate_rows(trajs, logs), self.kernel, VEL_VAR, self.seed))
        box = bg.BoxMaxwellianModel(side=SIDE, vel_var=VEL_VAR)
        pseed = round_seed(self.seed, 0, 3)
        cfg = bg.SimConfig(horizon=s["horizon"], level=LEVEL, escalate=False)
        out.update(self.probe(probe_engine(
            box, self.kernel, cfg, pseed, s["realizations"])))
        out.update(self.probe(probe_particles(
            self.kernel, s["probe_particles"], 0.1 * s["horizon"], pseed)))
        out.update(self.probe(self._probe_event_logs(logs)))
        out.update(self.probe(probe_weak_residual(trajs, self.kernel)))
        out.update(self.probe(probe_snapshot(
            bg.MollifiedEmpiricalModel,
            np.array([t.position(t.horizon) for t in trajs]),
            np.array([t.velocity(t.horizon) for t in trajs]),
            self.out_dir,
        )))
        return out

    def _probe_event_logs(self, logs):
        """Write the fixed points' atom logs as the engine's event logs."""
        tracer = Tracer(True, "probe-runio")
        n_bytes = 0
        for i, log in enumerate(logs):
            path = self.out_dir / f"picard_events_{i:04d}.jsonl"
            with tracer.span("runio.write_event_log"):
                runio.write_event_log(path, log)
            n_bytes += path.stat().st_size
        return tracer, event_log_metrics(tracer, len(logs), n_bytes)


class McKeanVlasov(Workload):
    """Symmetric particle ensemble, its snapshot, tagged paths against it."""

    name = "mckean-vlasov"
    model_class = bg.MollifiedEmpiricalModel
    # Its rounds are array work, which the mixed reference's Python loop
    # over-corrects: on fixed particle-phase work over six processes the
    # array reference left 0.03 coefficient of variation, the loop 0.09.
    reference = "array"
    SIZE = {"particles": 160, "particle_horizon": 1.5, "particle_dt": 0.05,
            "paths": 2, "horizon": 0.1, "probe_picard_horizon": 0.02,
            "warm_particles": 16}

    def setup(self):
        s = self.size
        self.kernel = HARD_SPHERE
        self.cfg = bg.SimConfig(horizon=s["horizon"], level=LEVEL, level_step=LEVEL)
        self.h_x, self.h_v = bg.default_bandwidths(
            s["particles"], side=SIDE, vel_var=VEL_VAR
        )
        warm = Tracer(False)
        seed = round_seed(self.seed, 0, 3)
        ens = bg.maxwellian_ensemble(
            s["warm_particles"], bg.stream(seed, 0), side=SIDE, vel_var=VEL_VAR,
            h_x=SIDE / 10.0, mode=SYMMETRIC_PAIR,
        )
        ens = bg.step_ensemble(ens, self.kernel, 0.1 * s["particle_dt"], bg.stream(seed, 1))
        path = self.out_dir / "warm_snapshot.csv"
        runio.write_snapshot_csv(path, ens.positions, ens.velocities)
        runio.read_csv_columns(path)
        model = self.model_class.from_csv(path, ens.h_x, ens.h_v, side=SIDE)
        cfg = bg.SimConfig(horizon=0.1 * s["horizon"], level=LEVEL, level_step=LEVEL)
        run_paths(warm, model, self.kernel, cfg, seed, 1, self.out_dir)

    def round(self, r, tracer, model_cls, traced):
        s = self.size
        ens = bg.maxwellian_ensemble(
            s["particles"], bg.stream(round_seed(self.seed, r, 0), 0),
            side=SIDE, vel_var=VEL_VAR, mode=SYMMETRIC_PAIR,
        )
        before = (ens.momentum(), ens.energy())
        rng = bg.stream(round_seed(self.seed, r, 1), 0)
        kicks = []
        while ens.time < s["particle_horizon"] - 1e-9:
            with tracer.span("particles.step_ensemble"):
                new = bg.step_ensemble(ens, self.kernel, s["particle_dt"], rng)
            kicks.append(kicked(ens, new))
            ens = new
        path = self.out_dir / "snapshot.csv"
        with tracer.span("runio.write_snapshot_csv"):
            runio.write_snapshot_csv(path, ens.positions, ens.velocities)
        with tracer.span("runio.read_csv_columns"):
            cols = runio.read_csv_columns(path)
        with tracer.span("densities.empirical_build"):
            model = model_cls.from_csv(path, ens.h_x, ens.h_v, side=SIDE)
        trajs, logs, accepted, n_bytes = run_paths(
            tracer, model, self.kernel, self.cfg,
            round_seed(self.seed, r, 2), s["paths"], self.out_dir,
        )
        self.rounds.append({
            "traced": traced, "ops": len(kicks) + s["paths"], "paths": s["paths"],
            "ens": ens, "before": before, "after": (ens.momentum(), ens.energy()),
            "cols": cols, "model": model, "trajs": trajs, "logs": logs,
            "accepted": accepted, "bytes": n_bytes, "kicks": kicks,
        })

    def references(self):
        return {"momentum": 0.0, "energy": 0.0, "snapshot": 0.0, "moment": 0.0,
                "bound_scale": 1.0, "log_offset": 0}

    def checks(self, refs):
        out = []
        for rec in self.rounds:
            ens, model = rec["ens"], rec["model"]
            scale = ens.energy()
            out.append(("momentum", checks.conserved(
                "momentum conserved", rec["before"][0] + refs["momentum"],
                rec["after"][0], scale)))
            out.append(("energy", checks.conserved(
                "energy conserved", rec["before"][1] + refs["energy"],
                rec["after"][1], scale)))
            cols = rec["cols"]
            got = np.column_stack([cols[c] for c in ("x1", "x2", "x3", "v1", "v2", "v3")])
            want = np.hstack([ens.positions, ens.velocities]) + refs["snapshot"]
            out.append(("snapshot", checks.bitwise(
                "snapshot csv round trip",
                np.hstack([got, model.positions, model.velocities]),
                np.hstack([want, want]),
            )))
            out.append(("moment", checks.relative(
                "empirical E|V|^2 = mean |v_i|^2 + 3 h_v^2",
                model.speed_moment(0.0, 2),
                float(np.mean(np.sum(ens.velocities**2, axis=1)))
                + 3.0 * ens.h_v**2 + refs["moment"],
                1e-9,
            )))
            rows = candidate_rows(rec["trajs"], rec["logs"])
            lam = np.array([
                bg.sigma(self.kernel, float(np.linalg.norm(bg.project_j(z, lv) - v)))
                * model.conditional(t, x[None], v[None])[0]
                for t, x, z, v, lv in zip(
                    rows["t"], rows["x"], rows["z"], rows["v"], rows["level"])
            ])
            out.append(("bound_scale", checks.thinning(
                "logged thinning decisions", lam, rows["bound"] * refs["bound_scale"],
                rows["r"], rows["accepted"],
            )))
            out.append(("log_offset", checks.equal(
                "event log accepted == jumps", rec["accepted"],
                [t.n_jumps + refs["log_offset"] for t in rec["trajs"]],
            )))
        return out

    def end_to_end(self):
        s = self.size
        out = rates(self.rounds, "engine.simulate_ensemble", s["horizon"])
        out["particle_time_per_s"] = run_rate(
            self.rounds, s["particles"] * s["particle_horizon"],
            "particles.step_ensemble",
        )
        return out

    def layers(self, tracer):
        s = self.size
        recs = self.traced_rounds()
        trajs = [t for rec in recs for t in rec["trajs"]]
        logs = [log for rec in recs for log in rec["logs"]]
        sim = tracer.total("engine.simulate_ensemble")
        out = engine_metrics(tracer, trajs, logs, self.cfg)
        out.update(density_metrics(tracer, len(trajs), sim))
        out.update(particle_metrics(
            tracer, [k for rec in recs for k in rec["kicks"]], len(recs)))
        out.update(event_log_metrics(tracer, len(trajs), sum(r["bytes"] for r in recs)))
        out.update(snapshot_metrics(tracer))
        out.update(replay_metrics(
            candidate_rows(trajs, logs), self.kernel, self.h_v**2, self.seed))
        snap = recs[-1]["ens"]
        model = bg.MollifiedEmpiricalModel(
            snap.positions, snap.velocities, snap.h_x, snap.h_v, side=SIDE)
        out.update(self.probe(probe_picard(
            model, self.kernel, LEVEL, s["probe_picard_horizon"],
            round_seed(self.seed, 0, 3), 1)))
        out.update(self.probe(probe_weak_residual(trajs, self.kernel)))
        return out


WORKLOADS = {w.name: w for w in (TaggedGrazing, PicardFixedPoint, McKeanVlasov)}
