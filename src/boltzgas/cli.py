"""Command-line runner: ``boltzgas run`` and ``boltzgas validate``.

A run reads one JSON config, executes its mode, writes every output
into one directory and finishes with a manifest naming each file.  Exit
status separates three outcomes: 0 when everything ran and every
verdict passed, 2 when the run completed but a physics verdict failed,
1 for operational errors (bad config, unreadable files, internal
failures).  The run is written into a temporary directory beside the
output directory and renamed onto it only once complete, so after an
error or an interrupt nothing of it remains; an output directory that
already holds files is refused before any work.  Only a kill that Python
cannot catch (SIGKILL, out of memory) leaves a work directory behind; a
later run beside it names it on stderr but never removes it, since it
may belong to a run still in progress.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

from . import densities, engine, particles, picard
from .config import ConfigError, load_config
from .diagnostics import (
    Constant,
    Energy,
    LinearMomentum,
    collision_invariant_residual,
    exit_statistics,
    relative_entropy_kde,
)
from .rng import stream
from .runio import (
    config_digest,
    document,
    report_document,
    write_distance_csv,
    write_event_log,
    write_manifest,
    write_report_json,
    write_snapshot_csv,
    write_trajectory_csv,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1.

    Status 2 is reserved for runs that completed with a failed physics
    verdict, so operational mistakes must not collide with it.
    """

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="boltzgas",
        description="Simulate and certify collisional velocity-jump dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config and write outputs")
    run_p.add_argument("--config", required=True, help="JSON config file")
    run_p.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    run_p.add_argument(
        "--out", default=None, help="override the output directory"
    )
    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True, help="JSON config file")
    return parser


def _run_simulate(cfg, seed, out, digest):
    trajectories, logs = engine.simulate_ensemble(
        cfg.model,
        cfg.kernel,
        cfg.sim,
        seed,
        cfg.params["n_paths"],
        log_events=cfg.params["log_events"],
    )
    grid = cfg.output_times or None
    for i, traj in enumerate(trajectories):
        write_trajectory_csv(
            out / f"trajectory_{i:04d}.csv", traj, grid_times=grid
        )
    if cfg.params["log_events"]:
        for i, log in enumerate(logs):
            write_event_log(out / f"events_{i:04d}.jsonl", log)
    return True


def _run_particles(cfg, seed, out, digest):
    p = cfg.params
    ens = particles.maxwellian_ensemble(
        p["n"],
        stream(seed, 0),
        side=p["box_side"],
        vel_var=p["vel_var"],
        h_x=p["h_x"],
        h_v=p["h_v"],
        mode=p["mode"],
    )
    final, snapshots = particles.evolve_ensemble(
        ens,
        cfg.kernel,
        cfg.sim.horizon,
        p["dt"],
        stream(seed, 1),
        snapshot_times=cfg.output_times,
    )
    for k, (when, snap) in enumerate(snapshots):
        write_snapshot_csv(
            out / f"snapshot_{k:04d}.csv", snap.positions, snap.velocities
        )
    write_snapshot_csv(
        out / "snapshot_final.csv", final.positions, final.velocities
    )
    return True


def _run_picard(cfg, seed, out, digest):
    report = picard.contraction_profile(
        cfg.model,
        cfg.kernel,
        cfg.sim.level,
        cfg.sim.horizon,
        cfg.params["n_iterates"],
        cfg.params["n_realizations"],
        seed,
    )
    write_distance_csv(out / "distances.csv", report)
    passed = report.nonincreasing_from(start=2)
    reached = report.passes_to_fixed_point()
    hit = reached[reached > 0]
    doc = document(
        "picard_contraction",
        digest,
        float(report.mean()[-1]),
        float(report.stderr()[-1]),
        0.0,
        "PASS" if passed else "FAIL",
        {
            "mean_distances": report.mean().tolist(),
            "stderr_distances": report.stderr().tolist(),
            "n_realizations": report.n_realizations,
            "fixed_point_share": float(np.mean(reached > 0)),
            "fixed_point_passes_mean": float(hit.mean()) if hit.size else None,
            "fixed_point_passes_max": int(hit.max()) if hit.size else None,
        },
    )
    write_report_json(out / "reports.json", [doc])
    return passed


def _run_check_invariants(cfg, seed, out, digest):
    observables = [
        Constant(),
        LinearMomentum([1.0, 0.0, 0.0]),
        LinearMomentum([0.0, 1.0, 0.0]),
        LinearMomentum([0.0, 0.0, 1.0]),
        Energy(),
    ]
    documents = []
    passed = True
    for psi in observables:
        rep = collision_invariant_residual(
            cfg.model,
            cfg.kernel,
            psi,
            t=cfg.params["t"],
            tolerance=cfg.params["tolerance"],
        )
        passed = passed and rep.verdict
        documents.append(report_document(rep, digest))
    write_report_json(out / "reports.json", documents)
    return passed


def _entropy_reference(cfg):
    if cfg.params["reference_variance"] is not None:
        return cfg.params["reference_variance"]
    vel_var = getattr(cfg.model, "vel_var", None)
    if vel_var is None:
        raise ValueError(
            "entropy mode needs an explicit reference_variance for this model"
        )
    return vel_var


def _run_entropy(cfg, seed, out, digest):
    reference = _entropy_reference(cfg)
    trajectories, _ = engine.simulate_ensemble(
        cfg.model, cfg.kernel, cfg.sim, seed, cfg.params["n_paths"]
    )
    times = cfg.output_times or [cfg.sim.horizon]
    documents = []
    reports = []
    for t in times:
        vel = np.array([path.velocity(t) for path in trajectories])
        rep = relative_entropy_kde(vel, reference_variance=reference)
        reports.append(rep)
        doc = report_document(rep, digest)
        doc["details"]["time"] = t
        documents.append(doc)
    passed = all(rep.consistent_with_zero for rep in reports)
    worst = -math.inf
    for a, b in zip(reports, reports[1:]):
        allowance = 3.0 * math.hypot(a.stderr, b.stderr) + (
            a.bias_budget + b.bias_budget
        )
        worst = max(worst, (b.value - a.value) - allowance)
    if len(reports) > 1:
        monotone = worst <= 0.0
        documents.append(
            document(
                "entropy_monotonicity",
                digest,
                worst,
                0.0,
                0.0,
                "PASS" if monotone else "FAIL",
                {"times": list(times)},
            )
        )
        passed = passed and monotone
    write_report_json(out / "reports.json", documents)
    return passed


def _run_exit_prob(cfg, seed, out, digest):
    trajectories, _ = engine.simulate_ensemble(
        cfg.model, cfg.kernel, cfg.sim, seed, cfg.params["n_paths"]
    )
    sups = np.array([path.max_speed() for path in trajectories])
    rep = exit_statistics(sups, cfg.params["thresholds"])
    write_report_json(out / "reports.json", [report_document(rep, digest)])
    return rep.monotone and rep.bounded


def _run_certify(cfg, seed, out, digest):
    report = densities.certify_hypotheses(
        cfg.model,
        cfg.kernel,
        cfg.sim.horizon,
        n_time=cfg.params["n_time"],
        n_side=cfg.params["n_side"],
    )
    documents = [
        document(
            f"hypothesis_{check.name}",
            digest,
            check.measured,
            0.0,
            check.declared_bound,
            "PASS" if check.passed else "FAIL",
            {
                "description": check.description,
                "refinement_drift": check.refinement_drift,
                "model": report.model,
            },
        )
        for check in report.checks
    ]
    write_report_json(out / "reports.json", documents)
    return report.passed


_RUNNERS = {
    "Simulate": _run_simulate,
    "Particles": _run_particles,
    "Picard": _run_picard,
    "CheckInvariants": _run_check_invariants,
    "Entropy": _run_entropy,
    "ExitProb": _run_exit_prob,
    "Certify": _run_certify,
}


def _execute(cfg, seed, out, digest):
    """Run the config's mode, writing into ``out``; True when it passed."""
    return _RUNNERS[cfg.mode](cfg, seed, out, digest)


def _command_run(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"boltzgas: {exc}", file=sys.stderr)
        return 1
    digest = config_digest(cfg.raw)
    seed = cfg.seed if args.seed is None else args.seed
    out_dir = args.out or cfg.out_dir or f"run_{digest[:12]}"
    if os.path.exists(out_dir) and (
        not os.path.isdir(out_dir) or os.listdir(out_dir)
    ):
        print(
            f"boltzgas: {out_dir} exists and is not an empty directory",
            file=sys.stderr,
        )
        return 1
    # the run is written beside out_dir and renamed onto it when complete,
    # so out_dir never holds a partial run
    parent = os.path.dirname(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    # another run may still be writing into one, so they are never removed
    pattern = os.path.join(glob.escape(parent), ".boltzgas-*")
    for stale in sorted(glob.glob(pattern)):
        print(
            f"boltzgas: work directory {stale} was left by another run "
            "(still running or killed); not removed",
            file=sys.stderr,
        )
    work = tempfile.mkdtemp(prefix=".boltzgas-", dir=parent)
    try:
        passed = _execute(cfg, seed, pathlib.Path(work), digest)
        outputs = os.listdir(work)
        write_manifest(
            os.path.join(work, "manifest.json"), digest, seed, outputs, mode=cfg.mode
        )
        # mkdtemp's directory is private; give it the mode makedirs would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(work, 0o777 & ~umask)
        os.replace(work, out_dir)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        shutil.rmtree(work, ignore_errors=True)
        print(f"boltzgas: run failed: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        # an interrupt or exit must not leave a partial run behind either
        shutil.rmtree(work, ignore_errors=True)
        raise
    print(f"outputs in {out_dir} ({len(outputs)} files + manifest)")
    if not passed:
        print("verdict: FAIL", file=sys.stderr)
        return 2
    return 0


def _command_validate(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"boltzgas: {exc}", file=sys.stderr)
        return 1
    digest = config_digest(cfg.raw)
    print(f"config OK: mode={cfg.mode} seed={cfg.seed} digest={digest[:12]}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    return _command_validate(args)


if __name__ == "__main__":
    sys.exit(main())
