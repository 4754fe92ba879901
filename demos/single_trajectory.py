"""Anatomy of one simulated trajectory.

The engine alternates free streaming with velocity jumps scheduled by
an exponential clock and accepted by thinning against the driving
density.  This script runs a single particle in a periodic unit box,
prints the first few candidate events with their acceptance decisions,
and summarizes the jump activity along the path.
"""

import numpy as np

from boltzgas.densities import BoxMaxwellianModel
from boltzgas.engine import SimConfig, simulate
from boltzgas.kernels import HARD_SPHERE, KernelSpec
from boltzgas.rng import stream


def main():
    box = BoxMaxwellianModel(side=1.0, vel_var=1.0)
    kernel = KernelSpec(gamma=1.0, c=1.0, angular=HARD_SPHERE)
    cfg = SimConfig(horizon=2.0, level=4.0)
    traj, log = simulate(box, kernel, cfg, stream(2024, 0))

    print("first candidate events")
    print("      s     |v|    theta     r    accepted")
    for rec in log.records[:8]:
        print(
            f"  {rec.time:7.4f} {np.linalg.norm(rec.velocity):6.3f} "
            f"{rec.theta:7.4f} {rec.r:6.3f}   {rec.accepted}"
        )

    accepted = log.n_accepted
    print(f"\ncandidates {log.n_candidates}, accepted {accepted}, "
          f"thinned away {log.n_candidates - accepted}")
    print(f"jump times recorded on the path: {traj.n_jumps}")

    speeds = np.linalg.norm(traj.velocities, axis=1)
    print(f"speed along the path: start {speeds[0]:.3f}, "
          f"max {speeds.max():.3f}, final {speeds[-1]:.3f}")

    t_grid = np.linspace(0.0, cfg.horizon, 5)
    print("\nsampled state (right-continuous in time)")
    for t in t_grid:
        x = traj.position(t)
        v = traj.velocity(t)
        print(
            f"  t={t:4.2f}  x=({x[0]:6.3f},{x[1]:6.3f},{x[2]:6.3f})"
            f"  v=({v[0]:6.3f},{v[1]:6.3f},{v[2]:6.3f})"
        )


if __name__ == "__main__":
    main()
