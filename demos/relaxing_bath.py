"""Moment tracking in a relaxing non-equilibrium bath.

The closed relaxing family interpolates between a flattened
distribution and the Maxwellian while keeping its energy fixed; its
fourth moment follows a known trajectory.  A tagged particle started
in the bath law must reproduce that trajectory, and the tagged
particle's own moment system, solved independently, predicts it without
touching the closed form.  The script simulates the tagged particle and prints all three
curves side by side.
"""

import math

import numpy as np

from boltzgas.densities import (
    BKWModel,
    bkw_fourth_moment,
    bkw_relaxation_rate,
)
from boltzgas.engine import SimConfig, simulate_ensemble
from boltzgas.kernels import HARD_SPHERE, KernelSpec


def main():
    kernel = KernelSpec(gamma=0.0, c=1.0, angular=HARD_SPHERE)
    c0 = 0.4
    rate = bkw_relaxation_rate(kernel)
    model = BKWModel(side=1.0, vel_var=1.0, c0=c0, rate=rate)
    print(f"bath relaxation rate for this kernel: {rate:.4f}")

    n_paths = 4000
    cfg = SimConfig(horizon=1.5, level=8.0, escalate=True)
    trajs, _ = simulate_ensemble(model, kernel, cfg, 717, n_paths)

    times = np.array([0.0, 0.3, 0.6, 0.9, 1.2, 1.5])
    _, m4_closure = bkw_fourth_moment(times, kernel, vel_var=1.0, c0=c0)
    k = 1.0 - c0 * np.exp(-rate * times)
    closed = 15.0 * k * (2.0 - k)

    print("fourth moment of the tagged velocity")
    print("   t    simulated (+-SE)     moment system   closed family")
    for t, closure_val, closed_val in zip(times, m4_closure, closed):
        m4 = np.array(
            [(tr.velocity(t) ** 2).sum() ** 2 for tr in trajs]
        )
        se = m4.std(ddof=1) / math.sqrt(n_paths)
        print(
            f"  {t:4.2f}   {m4.mean():7.3f} +- {se:5.3f}     "
            f"{closure_val:10.3f}     {closed_val:10.3f}"
        )
    print("equilibrium value is 15 (the Maxwellian fourth moment)")


if __name__ == "__main__":
    main()
