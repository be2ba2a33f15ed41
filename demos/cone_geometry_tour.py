"""Cone geometry and matching waves around a planar front.

Given speed bounds 0 < m <= g <= M and a planar wave P with gradient q and
speed r in the admissible band, the comparison machinery needs a space-time
cone and, on each boundary ray, a pair of faster/slower planar waves that
agree with P on the ray and sandwich it inside the cone.  This demo prints
the derived angles and vertex speeds for a hand-checkable instance and
verifies the ray agreement numerically.

Run:  python3 demos/cone_geometry_tour.py
"""

import math

import numpy as np

from hele_homog.geometry import (
    PlanarWave,
    cone_geometry,
    geometry_report_dict,
    matching_wave,
    xi_samples,
)


def main() -> None:
    geom = cone_geometry([0.0, -1.0], r=1.0, m=1.0, M=2.0)
    print("instance: q = (0, -1), r = 1, m = 1, M = 2")
    for key, value in geometry_report_dict(geom).items():
        print(f"  {key:12s} = {value:.6f}")
    print(f"  (theta = pi/4 = {math.pi / 4:.6f}, "
          f"rV_minus = sqrt(3) - 1 = {math.sqrt(3) - 1:.6f})")
    print()

    xi = xi_samples(geom, 1)[0]
    plus, minus = matching_wave(geom, xi)
    print(f"boundary direction xi = {np.round(xi, 6)}")
    print(f"  fast wave:  speed {plus.speed:.6f}, slope {plus.mu:.6f}, "
          f"time shift {plus.T_shift:+.6f}")
    print(f"  slow wave:  speed {minus.speed:.6f}, slope {minus.mu:.6f}, "
          f"time shift {minus.T_shift:+.6f}")
    print()

    P = PlanarWave(q=geom.q, r=geom.r)
    pts = geom.V[None, :] + np.linspace(-1.0, 3.0, 9)[:, None] * xi[None, :]
    worst = 0.0
    for t in (0.0, 0.7, 1.9):
        base = P.value(pts, t)
        worst = max(worst,
                    float(np.max(np.abs(plus.eval(pts, t) - base))),
                    float(np.max(np.abs(minus.eval(pts, t) - base))))
    print("agreement with the base wave on the boundary ray "
          f"(all times): max |difference| = {worst:.2e}")
    print("Inside the cone the same two waves bracket the base wave from")
    print("above and below — that sandwich is what comparison arguments use.")


if __name__ == "__main__":
    main()
