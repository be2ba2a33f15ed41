"""Sweep the effective front speed across gradients for the pinning medium.

The medium g(x, t) = sin^2(pi (x - t)) + 1 carries a traveling slowdown.
For an interval of gradient magnitudes q the front locks onto that wave and
moves at speed exactly 1 no matter what q is — the plateau printed below.
Outside the interval the speed grows with q again. A row whose time-1 map
certifies the lock (Poincare: Phi(x) - x - 1 takes both signs) reports the
exact speed 1 and is marked "locked"; the others report the finite-T average.

Run:  python3 demos/pinning_plateau.py
"""

import numpy as np

from hele_homog.homog1d import effective_velocity, traveling_wave_oracle, velocity_curve
from hele_homog.medium import builtin_medium


def main() -> None:
    g = builtin_medium("pinning")
    T = 200.0

    print("medium:", g.source)
    print(f"horizon T = {T:g} (speed error bound 1/T = {1 / T:g})")
    print()
    # the medium is the c = 1 wave G(x - t), so r(q) has a closed form
    print(f"{'q':>6}  {'r_hat':>9}  {'exact':>9}  row")
    for q in (0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0):
        est = effective_velocity(g, q, T=T)
        row = (f"locked at {est.r_hat * est.locked:.0f}/{est.locked}" if est.locked
               else "finite-T average")
        print(f"{q:6.2f}  {est.r_hat:9.4f}  {traveling_wave_oracle(g, 1, q):9.4f}  {row}")

    curve = velocity_curve(g, 0.45, 1.1, samples=40, T=T)
    plateau = curve.q[np.abs(curve.r_hat - 1.0) <= 2.0 / T]
    locked = curve.q[curve.locked > 0]
    print()
    print("gradients whose speed sits within 2/T of 1:")
    print(f"  q from {plateau.min():.3f} to {plateau.max():.3f} "
          f"({plateau.size} of {curve.q.size} samples)")
    print("gradients certified locked at speed exactly 1:")
    print(f"  q from {locked.min():.3f} to {locked.max():.3f} "
          f"({locked.size} of {curve.q.size} samples)")
    print("The locked interval is the signature of pinning: the front")
    print("surfs the slow stripe of the medium instead of outrunning it.")


if __name__ == "__main__":
    main()
