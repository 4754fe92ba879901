"""Collision kernels and the rates they induce.

A kernel couples a relative-speed cross section ``c |z - v|^gamma`` to
an angular measure on the polar angle.  The hard-sphere choice has
bounded mass; the power-law family concentrates near zero angle and
needs a cutoff.  The script tabulates cross sections, angular masses,
and the resulting candidate-generation rates for a unit box at a few
truncation levels.
"""

import numpy as np

from boltzgas.densities import BoxMaxwellianModel
from boltzgas.engine import Envelope
from boltzgas.kernels import (
    HARD_SPHERE,
    POWER_LAW,
    KernelSpec,
    angular_mass,
    angular_weighted_mass,
    sigma,
)


def main():
    hard = KernelSpec(gamma=1.0, c=1.0, angular=HARD_SPHERE)
    flat = KernelSpec(gamma=0.0, c=1.0, angular=HARD_SPHERE)
    grazing = KernelSpec(gamma=0.5, c=1.0, angular=POWER_LAW, nu=0.5)

    print("cross section sigma(r) = c r^gamma")
    for r in (0.5, 1.0, 2.0, 4.0):
        row = "  r={:3.1f}:".format(r)
        for name, k in (("hard", hard), ("flat", flat), ("grazing", grazing)):
            row += f"  {name} {sigma(k, r):6.3f}"
        print(row)

    print("\nangular measure masses")
    for name, k in (("hard sphere", hard), ("power law 0.5", grazing)):
        m0 = angular_mass(k)
        b1 = angular_weighted_mass(k, "sin2_half")
        b2 = angular_weighted_mass(k, "sin4_half")
        print(
            f"  {name:14s} mass {m0:7.4f}  "
            f"sin^2(theta/2) weight {b1:6.4f}  sin^4 weight {b2:6.4f}"
        )

    box = BoxMaxwellianModel(side=1.0, vel_var=1.0)
    print("\ncandidate rates in the unit box (before thinning)")
    for level in (2.0, 4.0, 8.0, 16.0):
        rates = [
            Envelope(box, k, horizon=1.0).rate(level)
            for k in (hard, flat, grazing)
        ]
        print(
            f"  level {level:4.1f}:  hard {rates[0]:8.2f}  "
            f"flat {rates[1]:8.2f}  grazing {rates[2]:8.2f}"
        )
    print("(the flat kernel ignores the level: its rate never depends on")
    print(" the particle speed, while gamma > 0 rates grow with the cap)")


if __name__ == "__main__":
    main()
